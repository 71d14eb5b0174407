import logging
from pathlib import Path

import numpy as np
import pytest

from hyperconv.data import Splits, load_knowledge, load_simple


def write_knowledge(directory, train, valid, test):
    for name, lines in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        (directory / name).write_text("".join(line + "\n" for line in lines), "utf-8")
    return directory


class TestSplits:
    def test_ratio_rounding_floor_then_remainder(self):
        s = Splits.from_ratios(10, (0.7, 0.1, 0.2), seed=0)
        assert (len(s.train), len(s.valid), len(s.test)) == (7, 1, 2)
        s.check(10)

    def test_seed_reproducibility(self):
        a = Splits.from_ratios(50, (0.7, 0.1, 0.2), seed=9)
        b = Splits.from_ratios(50, (0.7, 0.1, 0.2), seed=9)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_parts_partition_the_edge_ids(self):
        s = Splits.from_ratios(23, (0.5, 0.2, 0.3), seed=1)
        combined = np.sort(np.concatenate([s.train, s.valid, s.test]))
        np.testing.assert_array_equal(combined, np.arange(23))

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Splits(np.array([0]), np.array([], dtype=np.int64), np.array([1]))

    def test_check_rejects_overlap_and_range(self):
        s = Splits(np.array([0, 1]), np.array([1]), np.array([2]))
        with pytest.raises(ValueError, match="overlap"):
            s.check(3)
        s2 = Splits(np.array([0]), np.array([1]), np.array([5]))
        with pytest.raises(ValueError, match="out of range"):
            s2.check(3)


class TestLoadKnowledge:
    def test_single_binary_fact(self, tmp_path):
        d = write_knowledge(tmp_path, ["r\ta\tb"], ["r\ta\tb"], ["r\tb\ta"])
        kh, splits = load_knowledge(d)
        assert kh.num_relations == 1
        assert kh.base.num_nodes == 2
        assert kh.base.num_edges == 3
        assert splits.train.tolist() == [0]
        assert splits.test.tolist() == [2]

    def test_vocab_covers_all_splits_in_line_order(self, tmp_path):
        d = write_knowledge(
            tmp_path,
            ["likes\ta\tb", "hates\tb\tc"],
            ["likes\td\ta"],
            ["knows\te\ta\tb"],
        )
        kh, _ = load_knowledge(d)
        assert kh.relation_names == ("likes", "hates", "knows")
        assert kh.entity_names == ("a", "b", "c", "d", "e")
        assert kh.edge_type.tolist() == [0, 1, 0, 2]

    def test_blank_lines_skipped(self, tmp_path):
        d = write_knowledge(tmp_path, ["r\ta\tb", "", "r\tb\tc"], ["r\ta\tc"], ["r\tc\tb"])
        kh, splits = load_knowledge(d)
        assert kh.base.num_edges == 4
        assert len(splits.train) == 2

    def test_missing_file(self, tmp_path):
        write_knowledge(tmp_path, ["r\ta\tb"], ["r\ta\tb"], ["r\ta\tb"])
        (tmp_path / "valid.txt").unlink()
        with pytest.raises(FileNotFoundError, match="valid.txt"):
            load_knowledge(tmp_path)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        section = readme.split("**Knowledge hypergraph**", 1)[1]
        example = section.split("```", 2)[1].strip()
        assert "\t" not in example
        d = write_knowledge(tmp_path, [example], [example], [example])
        kh, _ = load_knowledge(d)
        assert kh.relation_names == ("concerto_composer",)
        assert kh.entity_names == ("mozart", "piano_concerto_20")

    def test_tab_separated_tokens_keep_spaces(self, tmp_path):
        d = write_knowledge(tmp_path, ["r\tnew york\tparis"], ["r a b"], ["r  a   b"])
        kh, _ = load_knowledge(d)
        assert kh.entity_names == ("new york", "paris", "a", "b")
        assert kh.base.edge_members[2] == (2, 3)

    def test_malformed_line_reports_position(self, tmp_path):
        d = write_knowledge(tmp_path, ["r\ta\tb", "lonely"], ["r\ta\tb"], ["r\ta\tb"])
        with pytest.raises(ValueError, match="train.txt:2"):
            load_knowledge(d)

    def test_empty_relation_token(self, tmp_path):
        d = write_knowledge(tmp_path, ["\ta\tb"], ["r\ta\tb"], ["r\ta\tb"])
        with pytest.raises(ValueError, match="empty relation"):
            load_knowledge(d)

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        d = write_knowledge(tmp_path, ["r\ta\tb"], ["r\tmünchen\tb"], ["r\ta\tb"])
        (d / "valid.txt").write_bytes("r\tmünchen\tb\n".encode() + b"r\ta\xff\tb\n")
        with pytest.raises(ValueError, match=r"^valid.txt:2: not UTF-8 text$"):
            load_knowledge(d)

    def test_crlf_files_load_like_lf(self, tmp_path):
        lines = (["r\ta\tb", "s\tb\tc"], ["r\tc\ta"], ["s a c"])
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        lf.mkdir()
        crlf.mkdir()
        write_knowledge(lf, *lines)
        for name, part in zip(("train.txt", "valid.txt", "test.txt"), lines):
            (crlf / name).write_bytes("".join(x + "\r\n" for x in part).encode())
        a, _ = load_knowledge(lf)
        b, _ = load_knowledge(crlf)
        assert b.entity_names == a.entity_names == ("a", "b", "c")
        assert b.base.edge_members == a.base.edge_members

    def test_loading_is_deterministic(self, tmp_path):
        d = write_knowledge(tmp_path, ["r\tx\ty", "s\ty\tz"], ["r\tz\tx"], ["s\tx\tz"])
        a, _ = load_knowledge(d)
        b, _ = load_knowledge(d)
        assert a.entity_names == b.entity_names
        assert a.base.edge_members == b.base.edge_members


class TestLoadSimple:
    def test_tokens_take_first_seen_ids(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("b a\nc a b\nd e\ne f\na f\n", "utf-8")
        h, splits, vocab = load_simple(p, split_ratios=(0.4, 0.3, 0.3), seed=0)
        assert vocab == ("b", "a", "c", "d", "e", "f")
        assert h.edge_members[:2] == ((0, 1), (0, 1, 2))
        splits.check(h.num_edges)

    def test_blank_line_warns_and_skips(self, tmp_path, caplog):
        p = tmp_path / "edges.txt"
        p.write_text("a b\n\nc d\na c\nb d\n", "utf-8")
        with caplog.at_level(logging.WARNING, logger="hyperconv.data"):
            h, _, _ = load_simple(p, split_ratios=(0.5, 0.25, 0.25))
        assert h.num_edges == 4
        assert any("blank line" in r.message for r in caplog.records)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("\n\n", "utf-8")
        with pytest.raises(ValueError, match="no hyperedges"):
            load_simple(p)

    def test_undecodable_byte_names_the_line(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_bytes(b"a b\nc d\nb \xffc\n")
        with pytest.raises(ValueError, match=r"^edges.txt:3: not UTF-8 text$"):
            load_simple(p)

    def test_same_seed_same_split(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("".join(f"n{i} n{i + 1}\n" for i in range(30)), "utf-8")
        _, a, _ = load_simple(p, seed=4)
        _, b, _ = load_simple(p, seed=4)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.valid, b.valid)
