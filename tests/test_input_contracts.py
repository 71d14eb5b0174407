"""The input contract as properties: every CLI run on a messy dataset or a
numeric flag at or past its bound exits 0, or fails with exactly one
``error:`` line that names the file and line or the flag, with no
traceback and no numpy warning. A malformed line fails naming its file
and line, and a flag past its bound fails with that bound's message."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperconv.cli import main

# names, some non-ASCII, and the separators and gaps a hand-written file holds
NAMES = ("r0", "r1", "a", "b", "c", "d", "é", "名")
GAPS = ("\t", " ", "  ", "\t\t", " \t")
ENDINGS = ("\n", "\r\n")

FILES = ("train.txt", "valid.txt", "test.txt")

# what a message may name for a flag: the flag, or the field it sets
FLAG_WORDS = {
    "--k": ("--k", "clusters", "k=", "k must"), "--dim": ("--dim", "hidden_dim"),
    "--lr": ("--lr", "learning_rate"), "--batch-size": ("--batch-size", "batch_size"),
    "--epsilon": ("--epsilon", "balance_epsilon"), "--ratios": ("--ratios", "split_ratios"),
}
# what a flag past its bound must fail with: the bound's own check
BOUND_WORDS = {
    "--k": ("clusters must be >= 1", "k must be >= 1"), "--dim": ("hidden_dim must be >= 1",),
    "--lr": ("learning_rate must be finite and positive",),
    "--batch-size": ("batch_size start at 1",),
    "--epsilon": ("balance_epsilon must be >= 0", "not finite"),
    "--ratios": ("split_ratios must", "--ratios applies to --task prediction only"),
}

# conditions of a whole dataset, which no one line or flag holds
WHOLE_DATASET = ("need at least 2 relation types", "no negatives could be sampled")

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def lines(draw, relations=("r0", "r1")):
    """One line: mostly a fact (a relation, then one or more names between
    gaps, now and then after a gap), sometimes any run of names and gaps,
    blank lines included."""
    if draw(st.integers(0, 3)):
        words = [draw(st.sampled_from(relations))] + draw(
            st.lists(st.sampled_from(NAMES[2:]), min_size=1, max_size=4))
        gaps = draw(st.lists(st.sampled_from(GAPS), min_size=len(words), max_size=len(words)))
        lead = draw(st.sampled_from(("", "", "", " ", "\t")))
        text = lead + "".join(w + g for w, g in zip(words, gaps)).rstrip(" \t")
    else:
        text = "".join(draw(st.lists(st.sampled_from(NAMES + GAPS), max_size=6)))
    return text + draw(st.sampled_from(ENDINGS))


def files(relations=("r0", "r1")):
    return st.lists(lines(relations), max_size=12).map("".join)


@st.composite
def knowledge_files(draw):
    """train, valid and test texts; test may use a relation no other file has."""
    texts = [draw(files()), draw(files())]
    return texts + [draw(files(("r0", "r1", "r9")))]


def first_bad_fact(texts):
    """``(file, line)`` of the first line, in file order, that README's
    knowledge format refuses: not blank, and split on tabs when it holds
    one (else on runs of whitespace) into fewer than two fields or an
    empty one. None when every line is a fact or blank."""
    for name, text in zip(FILES, texts):
        for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n")[:-1], 1):
            fields = line.split("\t") if "\t" in line else line.split()
            if line.strip() and (len(fields) < 2 or "" in fields):
                return name, lineno
    return None


def run(argv):
    """``main``'s exit code and its stderr; a traceback fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage line, then one error line
            code = exc.code
    return code, err.getvalue()


def check_outcome(code, err, words=()):
    """Exit 0, or one ``error:`` line holding one of ``words``, naming an
    empty split, or stating a condition of the whole dataset."""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    if code == 0:
        assert errors == []
        return
    assert code in (1, 2) and len(errors) == 1, err
    message = errors[0]
    named = [word for word in words if word in message]
    named += [name for name in ("train", "valid", "test") if f"empty {name} split" in message]
    named += [text for text in WHOLE_DATASET if message == f"error: {text}"]
    assert named, message


def check_data_outcome(code, err, texts, path):
    """With knowledge ``texts``, a malformed fact fails naming its file and
    line; then as ``check_outcome``, where the message may name a data file
    or ``--k``."""
    bad = first_bad_fact(texts) if texts else None
    if bad:
        assert code == 1 and err.splitlines()[-1].startswith(f"error: {bad[0]}:{bad[1]}: "), err
    check_outcome(code, err, (*FLAG_WORDS["--k"], *FILES, str(path)))


def write_knowledge(directory: Path, texts) -> None:
    for name, text in zip(FILES, texts):
        (directory / name).write_bytes(text.encode("utf-8"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(texts=knowledge_files(), task=st.sampled_from(["completion", "classification"]))
def test_knowledge_training_keeps_the_contract(texts, task):
    with tempfile.TemporaryDirectory() as tmp:
        write_knowledge(Path(tmp), texts)
        code, err = run(["train", "--task", task, "--data", tmp, "--epochs", "1",
                         "--dim", "4", "--k", "2", "--batch-size", "4"])
    check_data_outcome(code, err, texts, tmp)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(text=files(NAMES), knowledge=st.booleans(), k=st.integers(-1, 5))
def test_partition_keeps_the_contract(text, knowledge, k):
    with tempfile.TemporaryDirectory() as tmp:
        if knowledge:
            write_knowledge(Path(tmp), [text] * 3)
            data = tmp
        else:
            data = str(Path(tmp) / "edges.txt")
            Path(data).write_bytes(text.encode("utf-8"))
        code, err = run(["partition", data, "--k", str(k)])
    check_data_outcome(code, err, [text] * 3 if knowledge else None, data)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(text=files(NAMES))
def test_prediction_training_keeps_the_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "edges.txt"
        data.write_bytes(text.encode("utf-8"))
        code, err = run(["train", "--task", "prediction", "--data", str(data), "--epochs", "1",
                         "--dim", "4", "--k", "2", "--batch-size", "4"])
    if not text.strip():
        assert err == f"error: {data}: no hyperedges found\n"
    check_data_outcome(code, err, None, data)


REALS = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 0.05, 1.0, 1e308])
# three fractions summing to 1, or any two to four of these
RATIOS = st.one_of(
    st.sampled_from([["0.7", "0.1", "0.2"], ["0.5", "0.5", "0"], ["1", "0", "0"]]),
    st.lists(st.sampled_from(["0", "0.2", "0.5", "1", "-0.1", "nan", "inf"]), min_size=2,
             max_size=4))


@st.composite
def train_flags(draw):
    """One numeric flag, sometimes two, each at, inside or past its bound."""
    values = {"--k": st.integers(-1, 8), "--dim": st.integers(-1, 6), "--lr": REALS,
              "--batch-size": st.integers(-1, 6), "--ratios": RATIOS}
    chosen = draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=2, unique=True))
    return {flag: draw(values[flag]) for flag in chosen}


def past_bound(flag, value, task) -> bool:
    """Whether a train flag's value is one its bound refuses."""
    if flag == "--lr":
        return not 0 < value < math.inf
    if flag == "--ratios":
        ratios = [float(r) for r in value]
        return (task != "prediction" or len(ratios) != 3 or not all(r >= 0 for r in ratios)
                or abs(sum(ratios) - 1) > 1e-9)
    return value < 1


def bound_words(past, flags):
    """What the message may hold: a bound's check (or argparse's refusal)
    of a flag past its bound, or, with none, any flag's name."""
    if not past:
        return [word for flag in flags for word in FLAG_WORDS[flag]]
    # argparse reads "-inf" and "-0.1,..." as flags, and refuses two or four ratios
    return [word for flag in past for word in (f"argument {flag}", *BOUND_WORDS[flag])]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A small edge file and knowledge directory that train in one epoch."""
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(3)
    facts = ["r%d\t%s\n" % (i % 2, "\t".join(f"n{v}" for v in rng.choice(20, 3, replace=False)))
             for i in range(30)]
    for name, part in zip(FILES, (facts[:20], facts[20:25], facts[25:])):
        (root / name).write_text("".join(part), "utf-8")
    edges = root / "edges.txt"
    edges.write_text("".join(" ".join(fact.split()[1:]) + "\n" for fact in facts), "utf-8")
    return {"prediction": edges, "knowledge": root}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(flags=train_flags(), task=st.sampled_from(["completion", "prediction"]))
def test_numeric_train_flags_keep_the_contract(data, flags, task):
    path = data["prediction" if task == "prediction" else "knowledge"]
    argv = ["train", "--task", task, "--data", str(path), "--epochs", "1"]
    for flag, value in {"--dim": 4, **flags}.items():
        argv += [flag, ",".join(value) if flag == "--ratios" else repr(value)]
    code, err = run(argv)
    past = [flag for flag, value in flags.items() if past_bound(flag, value, task)]
    check_outcome(code, err, bound_words(past, flags))
    assert code != 0 or not past


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(k=st.integers(-1, 8), epsilon=REALS)
def test_numeric_partition_flags_keep_the_contract(data, k, epsilon):
    code, err = run(["partition", str(data["prediction"]), "--k", str(k),
                     "--epsilon", repr(epsilon)])
    # one cluster needs no bound, so only a slack below 0 fails it
    past = ["--k"] * (k < 1) + ["--epsilon"] * (not epsilon >= 0 or (k > 1 and epsilon >= 1e308))
    check_outcome(code, err, bound_words(past, ["--k", "--epsilon"]))
    assert code != 0 or not past
