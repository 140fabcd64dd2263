import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)


def test_parity_sorts_shared_test_ids_by_their_digest_lines():
    # three digests in conftest's format: node id, counter, fields. A test
    # whose lines come in another order keeps their counters in place, so
    # its lines are compared without the counter
    def digest(*lines):
        return parity.read_digest(f"{line}\n" for line in lines)

    base = digest("t::a\t0\tq1\th1", "t::a\t1\tq2\th2", "t::b\t0\tq3\th3",
                  "t::c\t0\toutcome\t0x1p-1", "t::old\t0\tq4\th4")
    same = digest("t::a\t0\tq1\th1", "t::a\t1\tq2\th2", "t::b\t0\tq3\th3",
                  "t::c\t0\toutcome\t0x1p-1", "t::new\t0\tq5\th5")
    moved = digest("t::a\t0\tq2\th2", "t::a\t1\tq1\th1", "t::b\t0\tq3\th4",
                   "t::c\t0\toutcome\t0x1p-1", "t::c\t1\toutcome\t0x1p-1")
    assert parity.compare(base, same) == {
        "identical": ["t::a", "t::b", "t::c"], "reordered": [], "different": []}
    assert parity.compare(base, moved) == {
        "identical": [], "reordered": ["t::a"], "different": ["t::b", "t::c"]}
    assert parity.compare(moved, base) == parity.compare(base, moved)
