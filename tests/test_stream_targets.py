"""``-o`` naming the file that standard output or standard error already writes to
writes through that stream, so a shell's ``>> log`` keeps the log's earlier lines.
Each case runs the CLI in its own process, with that stream opened in append mode
on a file that already holds ``earlier``; a command that fails leaves that file as it was."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SAMPLE = ROOT / "tests" / "data" / "sample.jsonl"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

pytestmark = pytest.mark.skipif(
    not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this platform"
)


def _summary(dataset: Path, *args: str, **streams) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-m", "serpsim.cli", "summary", "--dataset", str(dataset),
            "--engine-a", "acme", "--engine-b", "bravo", *args]
    return subprocess.run(argv, env=ENV, timeout=60, **streams)


@pytest.fixture(scope="module")
def report() -> bytes:
    return _summary(SAMPLE, capture_output=True, check=True).stdout


@pytest.mark.parametrize("stream, target, good", [
    ("stdout", "/dev/stdout", True), ("stderr", "/dev/stderr", True), ("stdout", "log", True),
    ("stdout", "/dev/stdout", False), ("stdout", "log", False),
], ids=["dev-stdout", "dev-stderr", "same-file", "failed-dev-stdout", "failed-same-file"])
def test_target_a_stream_writes_to_is_appended_through_it(tmp_path, report, stream, target, good):
    log = tmp_path / "log.txt"
    log.write_bytes(b"earlier\n")
    dataset = SAMPLE
    if not good:
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text("{not json\n", encoding="utf-8")
    other = "stderr" if stream == "stdout" else "stdout"
    with open(log, "ab") as appended:
        done = _summary(dataset, "-o", str(log) if target == "log" else target,
                        **{stream: appended, other: subprocess.PIPE})
    assert done.returncode == (0 if good else 2)
    assert log.read_bytes() == b"earlier\n" + (report if good else b"")
