import json
import re

import numpy as np
import pytest

import hyperconv.cli as cli
import hyperconv.training as training
from hyperconv.cli import _config_from_args, build_parser, main
from hyperconv.training import TASKS, TrainConfig

from helpers import planted_communities


@pytest.fixture(scope="module")
def knowledge_dir(tmp_path_factory):
    rng = np.random.default_rng(7)
    edges, homes = planted_communities(rng, 4, 10, 120, 3, 3)
    lines = [
        "r%d\t%s" % (c, "\t".join(f"e{v}" for v in members))
        for members, c in zip(edges, homes)
    ]
    d = tmp_path_factory.mktemp("kg")
    (d / "train.txt").write_text("".join(x + "\n" for x in lines[:84]), "utf-8")
    (d / "valid.txt").write_text("".join(x + "\n" for x in lines[84:96]), "utf-8")
    (d / "test.txt").write_text("".join(x + "\n" for x in lines[96:]), "utf-8")
    return d


@pytest.fixture(scope="module")
def edges_file(tmp_path_factory):
    rng = np.random.default_rng(11)
    edges, _ = planted_communities(rng, 2, 20, 70, 4, 6)
    p = tmp_path_factory.mktemp("plain") / "edges.txt"
    p.write_text(
        "".join(" ".join(f"n{v}" for v in members) + "\n" for members in edges),
        "utf-8",
    )
    return p


def _rewrite(source, target, change):
    """``source``'s lines, shuffled or with every name but a relation's
    renamed, written to ``target``."""
    lines = source.read_text("utf-8").splitlines(keepends=True)
    if change == "shuffle":
        lines = [lines[i] for i in np.random.default_rng(0).permutation(len(lines))]
    else:
        lines = [re.sub(r"(^|\s)([en])", r"\1x\2", line) for line in lines]
    target.write_text("".join(lines), "utf-8")


def train_args(data, report, ckpt, task="completion", extra=()):
    return [
        "train", "--task", task, "--data", str(data), "--k", "4", "--dim", "16",
        "--epochs", "8", "--patience", "4", "--batch-size", "32", "--seed", "7",
        "-o", str(report), "--checkpoint", str(ckpt), *extra,
    ]


class TestPartitionCommand:
    def test_writes_assignment_and_cut(self, edges_file, tmp_path, capsys):
        out = tmp_path / "clusters.txt"
        assert main(["partition", str(edges_file), "--k", "2", "-o", str(out)]) == 0
        lines = out.read_text("utf-8").strip().splitlines()
        assert len(lines) == 40
        assert all(len(line.split()) == 2 for line in lines)
        assert capsys.readouterr().out.startswith("cut: ")

    def test_accepts_knowledge_directory(self, knowledge_dir, capsys):
        assert main(["partition", str(knowledge_dir), "--k", "4"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 40
        assert "cut: " in captured.err

    def test_missing_path_fails(self, tmp_path, capsys):
        assert main(["partition", str(tmp_path / "nope.txt"), "--k", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_epsilon_fails_in_one_line(self, edges_file, capsys):
        assert main(["partition", str(edges_file), "--k", "2", "--epsilon", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: balance_epsilon") and err.count("\n") == 1

    @pytest.mark.parametrize("epsilon", ["inf", "1e308"])
    def test_epsilon_without_a_finite_bound_fails_in_one_line(self, edges_file, capsys, epsilon):
        assert main(["partition", str(edges_file), "--k", "2", "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: balance_epsilon") and captured.err.count("\n") == 1

    def test_edge_file_too_small_to_split(self, tmp_path, capsys):
        # partitioning reads the structure only, so no split is drawn
        p = tmp_path / "cycle.txt"
        p.write_text("a b\nb c\nc d\nd a\n", "utf-8")
        assert main(["partition", str(p), "--k", "2"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 4
        assert "cut: " in captured.err

    def test_writes_node_names(self, tmp_path, capsys):
        p = tmp_path / "cycle.txt"
        p.write_text("a b\nb c\nc d\nd a\n", "utf-8")
        assert main(["partition", str(p), "--k", "2"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [name for name, _ in rows] == ["a", "b", "c", "d"]
        assert {cluster for _, cluster in rows} <= {"0", "1"}


class TestTrainCommand:
    def test_report_checkpoint_and_summary(self, knowledge_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        ckpt = tmp_path / "model.json"
        assert main(train_args(knowledge_dir, report, ckpt)) == 0
        doc = json.loads(report.read_text("utf-8"))
        assert set(doc) == {
            "task", "seed", "config", "partition", "history",
            "test_metrics", "best_epoch", "epochs_run", "wall_seconds",
        }
        assert set(doc["test_metrics"]) == {"mrr", "hit1", "hit3"}
        assert all(0.0 <= v <= 1.0 for v in doc["test_metrics"].values())
        assert ckpt.exists()
        err = capsys.readouterr().err
        assert "completion:" in err and "%" in err

    def test_repeat_runs_match_apart_from_wall_time(self, knowledge_dir, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(train_args(knowledge_dir, path, tmp_path / ("m" + name))) == 0
            doc = json.loads(path.read_text("utf-8"))
            doc.pop("wall_seconds")
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_prediction_task_on_edge_file(self, edges_file, tmp_path):
        report = tmp_path / "report.json"
        ckpt = tmp_path / "model.json"
        args = train_args(edges_file, report, ckpt, task="prediction")
        assert main(args) == 0
        doc = json.loads(report.read_text("utf-8"))
        assert set(doc["test_metrics"]) == {"auc"}

    def test_prediction_skips_an_edge_spanning_every_node(self, tmp_path, caplog):
        # edge 4 holds all six nodes, so no corruption of it exists
        edges = ["a b c", "b c d", "c d e", "d e f", "a b c d e f", "a e f", "b d f",
                 "a c e", "a b f", "c e f", "b d e", "a d f"]
        data = tmp_path / "six.txt"
        data.write_text("".join(e + "\n" for e in edges), "utf-8")
        report = tmp_path / "report.json"
        args = ["train", "--task", "prediction", "--data", str(data), "--k", "2", "--dim", "4",
                "--epochs", "2", "--patience", "2", "--seed", "1", "-o", str(report)]
        assert main(args) == 0
        assert set(json.loads(report.read_text("utf-8"))["test_metrics"]) == {"auc"}
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["skipping negative: edge 4 spans every node; nothing to swap in"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's notes must stay silent
    def test_diverging_weights_fail_in_one_line(self, edges_file, tmp_path, capsys):
        args = train_args(
            edges_file, tmp_path / "r.json", tmp_path / "m.json",
            task="prediction", extra=("--lr", "1e300"),
        )
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite weights after epoch")
        assert err.count("\n") == 1


    def test_unwritable_checkpoint_named_in_one_line(self, knowledge_dir, tmp_path, capsys):
        ckpt = tmp_path / "nodir" / "model.ckpt"
        assert main(train_args(knowledge_dir, tmp_path / "r.json", ckpt)) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{ckpt}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


class TestEvalCommand:
    def test_reproduces_training_metrics(self, knowledge_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        ckpt = tmp_path / "model.json"
        assert main(train_args(knowledge_dir, report, ckpt)) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(knowledge_dir)]) == 0
        got = json.loads(capsys.readouterr().out)
        want = json.loads(report.read_text("utf-8"))["test_metrics"]
        assert got == want

    def test_prediction_eval_matches_report(self, edges_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        ckpt = tmp_path / "model.json"
        assert main(train_args(edges_file, report, ckpt, task="prediction")) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(edges_file)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == json.loads(report.read_text("utf-8"))["test_metrics"]

    @pytest.mark.parametrize("change", ["shuffle", "rename"])
    @pytest.mark.parametrize("task", ["completion", "prediction"])
    def test_dataset_numbering_names_otherwise_fails(self, knowledge_dir, edges_file, tmp_path,
                                                      capsys, task, change):
        # shuffled lines hold the same facts under other ids; renamed ones other facts
        source = edges_file if task == "prediction" else knowledge_dir
        ckpt = tmp_path / "model.json"
        assert main(train_args(source, tmp_path / "r.json", ckpt, task=task)) == 0
        data = tmp_path / "data"
        if task == "prediction":
            _rewrite(source, data, change)
        else:
            data.mkdir()
            for name in ("train.txt", "valid.txt", "test.txt"):
                _rewrite(source / name, data / name, change)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        kind = "node" if task == "prediction" else "relation|entity"
        assert re.fullmatch(rf"error: dataset's ({kind}) \d+ is '\w+', the model's is '\w+'\n",
                            err)

    def test_bad_checkpoint_path(self, knowledge_dir, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["eval", "--checkpoint", str(missing), "--data", str(knowledge_dir)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestQueryCommand:
    def test_relation_ranking_by_name(self, knowledge_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        assert main(train_args(knowledge_dir, tmp_path / "r.json", ckpt)) == 0
        capsys.readouterr()
        assert main(["query", "--checkpoint", str(ckpt), "--nodes", "e0,e1,e2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # one row per relation
        names = [line.split("\t")[0] for line in lines]
        assert sorted(names) == ["r0", "r1", "r2", "r3"]
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_numeric_ids_accepted(self, knowledge_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        assert main(train_args(knowledge_dir, tmp_path / "r.json", ckpt)) == 0
        capsys.readouterr()
        assert main(["query", "--checkpoint", str(ckpt), "--nodes", "0,1,2"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_edge_score_for_prediction_model(self, edges_file, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        args = train_args(edges_file, tmp_path / "r.json", ckpt, task="prediction")
        assert main(args) == 0
        capsys.readouterr()
        assert main(["query", "--checkpoint", str(ckpt), "--nodes", "n0,n1,n2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("edge score: ")
        assert 0.0 < float(out.split(": ")[1]) < 1.0

    def test_unknown_node_name(self, knowledge_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        assert main(train_args(knowledge_dir, tmp_path / "r.json", ckpt)) == 0
        capsys.readouterr()
        assert main(["query", "--checkpoint", str(ckpt), "--nodes", "bogus"]) == 1
        assert "unknown node" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes, position", [
        ("e1,,e2", 2), ("e1,e2,", 3), (",e1", 1), (",", 1),
    ], ids=["middle", "trailing", "leading", "comma-only"])
    def test_empty_name_fails_naming_its_position(self, knowledge_dir, tmp_path, capsys,
                                                  nodes, position):
        # the first three once scored with the empty name dropped
        ckpt = tmp_path / "model.json"
        assert main(train_args(knowledge_dir, tmp_path / "r.json", ckpt)) == 0
        capsys.readouterr()
        assert main(["query", "--checkpoint", str(ckpt), "--nodes", nodes]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --nodes: empty name at position {position}\n"


def test_an_allocation_too_large_fails_in_one_line(knowledge_dir, tmp_path, monkeypatch, capsys):
    # the layers are never drawn: a real attempt could commit terabytes
    message = "Unable to allocate 8.91 TiB for an array with shape (1000000000, 1225)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(training, "init_layer", refuse)
    report = tmp_path / "report.json"
    args = train_args(knowledge_dir, report, tmp_path / "model.ckpt",
                      extra=("--dim", "1000000000"))
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


class TestSweepCommand:
    def test_two_value_grid_emits_csv(self, knowledge_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--task", "completion", "--data", str(knowledge_dir),
            "--dim", "16", "--epochs", "6", "--patience", "3", "--batch-size", "32",
            "--seed", "7", "--param", "k", "--values", "2,4", "-o", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text("utf-8").strip().splitlines()
        assert lines[0] == "k,mrr"
        assert len(lines) == 3
        for line, expected_k in zip(lines[1:], (2, 4)):
            k, metric = line.split(",")
            assert int(k) == expected_k
            assert 0.0 <= float(metric) <= 1.0

    def test_non_integer_value_names_the_flag(self, knowledge_dir, capsys):
        args = ["sweep", "--task", "completion", "--data", str(knowledge_dir),
                "--param", "k", "--values", "2,x"]
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--values" in err and "'2,x'" in err

    def test_bad_value_fails_before_any_training(self, knowledge_dir, monkeypatch, capsys):
        trained = []
        monkeypatch.setattr(cli, "_run_training", lambda *args: trained.append(args))
        args = ["sweep", "--task", "completion", "--data", str(knowledge_dir),
                "--param", "k", "--values", "2,0"]
        assert main(args) == 1
        assert trained == []
        assert capsys.readouterr().err == "error: clusters must be >= 1\n"


@pytest.mark.parametrize("task", TASKS)
def test_train_flags_default_to_the_config_fields(task):
    args = build_parser().parse_args(["train", "--task", task, "--data", "D"])
    assert _config_from_args(args) == TrainConfig(task=task)


def test_train_flags_set_their_fields():
    args = build_parser().parse_args([
        "sweep", "--task", "prediction", "--data", "D", "--k", "3", "--omega", "var",
        "--bilinear", "off", "--dim", "8", "--epochs", "5", "--patience", "2", "--lr", "0.5",
        "--batch-size", "7", "--seed", "9", "--ratios", "0.5,0.25,0.25",
        "--param", "dim", "--values", "4"])
    assert _config_from_args(args) == TrainConfig(
        task="prediction", clusters=3, omega="var", bilinear=False, hidden_dim=8, epochs=5,
        patience=2, learning_rate=0.5, batch_size=7, seed=9, split_ratios=(0.5, 0.25, 0.25))


def test_ratios_take_three_fractions(capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["train", "--task", "completion", "--data", "D",
                                   "--ratios", "0.8,0.2"])
    assert info.value.code == 2
    assert "--ratios: expected three comma-separated fractions" in capsys.readouterr().err


def test_bilinear_takes_on_or_off(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--task", "completion", "--data", "D",
                                   "--bilinear", "yes"])
    assert "--bilinear: expected on or off, got 'yes'" in capsys.readouterr().err
