"""The committed byte check, `tools/fingerprint.py`: run one grid point twice
and compare, then move one array by one ulp."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)

POINT = "full-8x3-r1-f32"


def test_two_runs_compare_equal_and_a_one_ulp_move_is_named(tmp_path, capsys):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    for out in (a, b):
        assert fingerprint.main(["run", "--src", str(ROOT), "--out", str(out), "--point", POINT]) == 0
    with np.load(b) as f:
        arrays = dict(f)
    assert all(key.startswith(POINT + "/") for key in arrays)
    assert {"loss", "batch/top_segments", "one/start_logits", "adam/losses"} <= {
        key.partition("/")[2] for key in arrays
    }
    n = len(arrays)
    assert fingerprint.main(["compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"all: {n} of {n} entries equal at 1 points"
    assert f"{POINT} grad encoder/gru/fwd: equal (4)" in lines

    key = f"{POINT}/grad/encoder/gru/fwd/u_g"
    ref = arrays[key].copy()
    flat = arrays[key].reshape(-1)
    flat[3] = np.nextafter(flat[3], np.float32(np.inf))
    np.savez(b, **arrays)
    assert fingerprint.main(["compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    rel = np.abs(arrays[key].astype(np.float64) - ref).max() / np.abs(ref.astype(np.float64)).max()
    moved = [line for line in lines if "equal" not in line or line.startswith(POINT + ":")]
    assert moved[0] == f"{POINT} grad encoder/gru/fwd: u_g {rel:.2g}"
    assert f"worst {rel:.2g} (encoder/gru/fwd/u_g)" in moved[1]
    assert lines[-1] == f"all: {n - 1} of {n} entries equal at 1 points"

    # an entry on one side only is named and counts as not equal
    del arrays[key]
    np.savez(b, **arrays)
    assert fingerprint.main(["compare", str(a), str(b)]) == 1
    assert f"{POINT} grad encoder/gru/fwd: u_g only in {a}" in capsys.readouterr().out
