import importlib.util
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare", ROOT / "references" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

TREE = {
    "c1/summary.txt": "termination = completed\n",
    "c1/functionals.csv": "t,F1,F2\n0,0.5,nan\n1,0.25,nan\n2,1.5e-20,nan\n",
    "verify/inequalities.csv": "test_id,p,inequality,lhs,rhs,margin,pass\n"
                               "0,1,grad_pairing,2.5,4,1.5,1\n",
    "verify/report.txt": "PASS 1d id=0 p=1 grad_pairing margin=1.5\n"
                         "all 1 verification cases passed\n",
}


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


@pytest.mark.parametrize("rel, old, new, passes", [
    (None, None, None, True),
    ("c1/summary.txt", "completed", "blowup_detected", False),
    # a last-bit move passes, also in a value at round-off of its column
    ("c1/functionals.csv", "0.25,", "0.25000000000000006,", True),
    ("c1/functionals.csv", "1.5e-20", "1.6e-20", True),
    ("c1/functionals.csv", "0.25,", "0.25000000000025,", False),  # F1 x (1 + 1e-12)
    ("c1/functionals.csv", "0.5,nan", "0.5,0.5", False),
    ("c1/functionals.csv", "t,F1", "t,F2", False),
    ("verify/inequalities.csv", "1.5,1\n", "1.5000000000000002,1\n", True),
    ("verify/inequalities.csv", "1.5,1\n", "1.5,0\n", False),  # a flipped pass
    ("verify/report.txt", "margin=1.5", "margin=1.5000000000000002", True),
    ("verify/report.txt", "PASS 1d", "FAIL 1d", False),
    ("verify/report.txt", "grad_pairing", "div_pairing", False),
])
def test_compare_keeps_bytes_and_lets_only_last_bits_move(tmp_path, rel, old, new, passes):
    files = dict(TREE)
    if rel is not None:
        assert old in files[rel]
        files[rel] = files[rel].replace(old, new)
    ref, changed = write_tree(tmp_path / "ref", TREE), write_tree(tmp_path / "new", files)
    assert (compare.main([ref, changed]) == 0) == passes


def test_compare_wants_every_file_in_both_trees(tmp_path):
    ref = write_tree(tmp_path / "ref", TREE)
    changed = write_tree(tmp_path / "new", TREE)
    shutil.rmtree(tmp_path / "new" / "verify")
    assert compare.main([ref, changed]) == 1
    assert compare.main([changed, ref]) == 1
