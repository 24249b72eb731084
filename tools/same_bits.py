"""Check that the working tree's `src/` gives the same output bytes as
REV's through the command-line interface.

    python3 tools/same_bits.py [REV]        (REV defaults to HEAD)

REV's `src/` is taken with `git archive` into a temporary directory.  For
that tree and for the working tree's `src/`, each in a run directory of
its own, with every path relative to it, the same commands run:

- for each `configs/*.cfg`, the `stlinfer generate` and `stlinfer train`
  commands its header comment documents, then `eval --model --formula`
  of the trained model on its training set;
- `generate` of naval held-out data (`--count 750 --seed 101`), and
  `eval --model --formula` on it of the naval model and of the model in
  `perfbench/fixture/` (read there, never written);
- one `python -c` step (`RAW_SCORES`) that prints the sha256 of the raw
  `network_outputs(...).tobytes()` of those two models on the held-out
  set, so that a scoring change that moves an output without flipping
  its sign shows too.

Every file the commands leave is compared byte for byte, except that
`curves.csv` is compared by its epoch, loss and mcr columns (its seconds
are wall-clock).  Each command's stdout, stderr and exit code are files
of the run directory too.  Prints `same bits` and exits 0, or names each
differing file and exits 1; exits 2 when REV cannot be archived.
"""

import io
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
FIXTURE = ROOT / "perfbench" / "fixture"
HELDOUT = ["generate", "--scenario", "naval", "--count", "750", "--seed", "101", "--out", "heldout.csv"]
# the sha256 of each named model's raw network outputs on the held-out set
RAW_SCORES = """
import hashlib, sys
from stlinfer.datasets import load_csv
from stlinfer.evaluate import load_model
from stlinfer.network import network_outputs
X = load_csv("heldout.csv").X
for report in sys.argv[1:]:
    out = network_outputs(X, *load_model(report))
    print(hashlib.sha256(out.tobytes()).hexdigest(), report)
"""


def _flag(args: list, name: str) -> str:
    return args[args.index(name) + 1]


def _documented(cfg: Path, verb: str) -> list:
    """The arguments of the `stlinfer <verb>` command in cfg's header."""
    for line in cfg.read_text(encoding="utf-8").splitlines():
        text = line.lstrip("#").strip()
        if text.startswith(f"stlinfer {verb} "):
            return shlex.split(text)[1:]
    raise ValueError(f"{cfg}: no 'stlinfer {verb}' command in its header")


def _naval_model() -> str:
    """The run directory of the naval config's model."""
    return _flag(_documented(ROOT / "configs" / "naval.cfg", "train"), "--out")


def commands() -> list:
    """(name, CLI arguments) of every command, in the order they run."""
    def evaluate(data: str, model_dir: str) -> list:
        return ["eval", "--data", data, "--model", f"{model_dir}/report.json",
                "--formula", f"{model_dir}/formula.txt"]

    runs = []
    for cfg in CONFIGS:
        generate, train = _documented(cfg, "generate"), _documented(cfg, "train")
        runs += [
            (f"generate-{cfg.stem}", generate),
            (f"train-{cfg.stem}", train),
            (f"eval-{cfg.stem}", evaluate(_flag(train, "--data"), _flag(train, "--out"))),
        ]
    naval = _naval_model()
    runs += [
        ("generate-heldout", HELDOUT),
        ("eval-naval-heldout", evaluate("heldout.csv", naval)),
        ("eval-fixture-heldout", evaluate("heldout.csv", str(FIXTURE))),
    ]
    return runs


def raw_scores() -> list:
    """The Python arguments of the raw-score step: RAW_SCORES on the naval
    model and the fixture."""
    return ["-c", RAW_SCORES, f"{_naval_model()}/report.json", str(FIXTURE / "report.json")]


def run_tree(src: Path, run_dir: Path) -> None:
    """Run every command, then the raw-score step, with `src` as the
    package source, in run_dir beside a copy of the configs, and leave
    each one's stdout, stderr and exit code in run_dir/cli."""
    (run_dir / "configs").mkdir(parents=True)
    (run_dir / "cli").mkdir()
    for cfg in CONFIGS:
        (run_dir / "configs" / cfg.name).write_bytes(cfg.read_bytes())
    env = dict(os.environ, PYTHONPATH=str(src))
    steps = [(name, ["-m", "stlinfer", *args]) for name, args in commands()]
    for n, (name, args) in enumerate(steps + [("raw-scores", raw_scores())]):
        done = subprocess.run([sys.executable, *args], cwd=run_dir, env=env, capture_output=True)
        stem = run_dir / "cli" / f"{n:02d}-{name}"
        stem.with_suffix(".stdout").write_bytes(done.stdout)
        stem.with_suffix(".stderr").write_bytes(done.stderr)
        stem.with_suffix(".exit").write_text(f"{done.returncode}\n", encoding="utf-8")


def _compared(path: Path) -> bytes:
    """What of a file is compared: all its bytes, or for curves.csv each
    line's first three columns."""
    data = path.read_bytes()
    if path.name != "curves.csv":
        return data
    return b"\n".join(b",".join(line.split(b",")[:3]) for line in data.splitlines())


def compare(a: Path, b: Path) -> list:
    """The relative paths of the files of run directories a and b that
    differ or exist in only one of them, sorted."""
    files = {
        path.relative_to(top).as_posix()
        for top in (a, b)
        for path in top.rglob("*")
        if path.is_file()
    }
    return sorted(
        name
        for name in files
        if not ((a / name).is_file() and (b / name).is_file())
        or _compared(a / name) != _compared(b / name)
    )


def verdict(differ: list) -> int:
    """Print `same bits`, or each differing file; the exit code."""
    if not differ:
        print("same bits")
        return 0
    for name in differ:
        print(f"differs: {name}")
    return 1


def extract(rev: str, paths: list, dest: Path) -> bool:
    """Write REV's `paths` under dest with `git archive`; False, with git's
    message on stderr, when REV or a path cannot be archived."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, *paths], cwd=ROOT, capture_output=True
    )
    if archive.returncode:
        print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return True


def main(argv: list) -> int:
    rev = argv[1] if len(argv) > 1 else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if not extract(rev, ["src"], tmp / "rev"):
            return 2
        run_tree(tmp / "rev" / "src", tmp / "at-rev")
        run_tree(ROOT / "src", tmp / "working")
        return verdict(compare(tmp / "at-rev", tmp / "working"))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
