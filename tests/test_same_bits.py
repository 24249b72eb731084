"""tools/same_bits.py, the same-output check between two source trees:
its comparison rules on run directories made here (no training runs),
the commands it runs and its raw-score step."""

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

from stlinfer.datasets import gen_naval, load_csv, save_csv
from stlinfer.evaluate import load_model
from stlinfer.network import network_outputs

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_bits", ROOT / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)


def run_dir(top: Path) -> Path:
    """A run directory as `run_tree` leaves one, in miniature."""
    (top / "runs" / "naval").mkdir(parents=True)
    (top / "cli").mkdir()
    (top / "runs" / "naval" / "report.json").write_bytes(b'{\n  "b": [0.25, -1.5]\n}\n')
    (top / "runs" / "naval" / "curves.csv").write_bytes(
        b"epoch,loss,mcr,seconds\n0,0.75,0.5,0.012345\n1,0.5,0.0,0.011111\n"
    )
    (top / "naval.csv.npy").write_bytes(bytes(range(256)))
    (top / "cli" / "01-train-naval.stdout").write_bytes(b"formula: F[4,60](x0 < 30.79)\n")
    (top / "cli" / "01-train-naval.exit").write_bytes(b"0\n")
    return top


def verdict(a: Path, b: Path, capsys) -> tuple:
    code = same_bits.verdict(same_bits.compare(a, b))
    return capsys.readouterr().out, code


def test_identical_trees_give_same_bits(tmp_path, capsys):
    a = run_dir(tmp_path / "a")
    b = shutil.copytree(a, tmp_path / "b")
    assert verdict(a, b, capsys) == ("same bits\n", 0)


def test_the_seconds_of_curves_csv_are_not_compared(tmp_path, capsys):
    a = run_dir(tmp_path / "a")
    b = shutil.copytree(a, tmp_path / "b")
    curves = b / "runs" / "naval" / "curves.csv"
    curves.write_bytes(curves.read_bytes().replace(b"0.012345", b"9.876543"))
    assert verdict(a, b, capsys) == ("same bits\n", 0)
    # its loss and mcr columns are compared
    curves.write_bytes(curves.read_bytes().replace(b"0,0.75,", b"0,0.7500000000000001,"))
    assert verdict(a, b, capsys) == ("differs: runs/naval/curves.csv\n", 1)


def test_a_flipped_byte_is_named(tmp_path, capsys):
    a = run_dir(tmp_path / "a")
    b = shutil.copytree(a, tmp_path / "b")
    report = b / "runs" / "naval" / "report.json"
    data = bytearray(report.read_bytes())
    data[12] ^= 0x01
    report.write_bytes(bytes(data))
    assert verdict(a, b, capsys) == ("differs: runs/naval/report.json\n", 1)


def test_a_file_in_one_tree_only_is_named(tmp_path, capsys):
    a = run_dir(tmp_path / "a")
    b = shutil.copytree(a, tmp_path / "b")
    (a / "cli" / "01-train-naval.exit").unlink()
    (b / "cli" / "02-eval-naval.stderr").write_bytes(b"")
    assert verdict(a, b, capsys) == (
        "differs: cli/01-train-naval.exit\ndiffers: cli/02-eval-naval.stderr\n",
        1,
    )


def test_commands_cover_every_config_and_the_held_out_data():
    names = [name for name, _ in same_bits.commands()]
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for verb in ("generate", "train", "eval"):
            assert f"{verb}-{cfg.stem}" in names
    assert names[-3:] == ["generate-heldout", "eval-naval-heldout", "eval-fixture-heldout"]
    fixture = dict(same_bits.commands())["eval-fixture-heldout"]
    assert fixture[fixture.index("--model") + 1] == str(ROOT / "perfbench" / "fixture" / "report.json")


def test_raw_scores_digest_the_outputs_of_the_naval_model_and_the_fixture(tmp_path):
    # the step runs in a run directory after `generate-heldout` and
    # `train-naval`; here the naval model is a copy of the fixture's
    args = same_bits.raw_scores()
    naval, fixture = args[2:]
    assert args[:2] == ["-c", same_bits.RAW_SCORES] and naval == "runs/naval/report.json"
    assert fixture == str(ROOT / "perfbench" / "fixture" / "report.json")
    save_csv(gen_naval(10, seed=101), tmp_path / "heldout.csv")
    (tmp_path / "runs" / "naval").mkdir(parents=True)
    shutil.copy(fixture, tmp_path / naval)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, check=True, text=True
    )
    X = load_csv(tmp_path / "heldout.csv").X
    digests = [
        hashlib.sha256(network_outputs(X, *load_model(tmp_path / report)).tobytes()).hexdigest()
        for report in (naval, fixture)
    ]
    assert done.stdout == f"{digests[0]} {naval}\n{digests[1]} {fixture}\n"
