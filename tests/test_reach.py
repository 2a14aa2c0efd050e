"""tools/reach.py: its function table matches the code objects the recorder
sees, and every KEEP entry names a src function and says why it stays.

The profile itself (every shipped path, then tier-1, under the recorder)
takes minutes and runs as its own CI job.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.quic.packet import PacketType, QuicPacket

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def table(reach):
    return {f.name: f for f in reach.functions()}


def test_keys_match_the_code_objects_a_call_records(table):
    """A decorated method, a property and a nested function: each one's
    (path, qualname, first line) is its code object's."""
    decode = QuicPacket.decode.__code__
    (need,) = (c for c in decode.co_consts if getattr(c, "co_name", "") == "need")
    for code in (decode, need, PacketType.long_header.fget.__code__):
        function = table[f"repro.quic.packet:{code.co_qualname}"]
        assert (function.path, function.qualname, function.first) == (
            code.co_filename,
            code.co_qualname,
            code.co_firstlineno,
        )


def test_every_keep_entry_names_a_function_and_a_reason(reach, table):
    assert not [name for name in reach.KEEP if name not in table]
    assert all(reason.strip() for reason in reach.KEEP.values())


def test_report_fails_on_a_failed_path_or_a_function_outside_keep(reach, capsys):
    funcs = list(reach.functions())
    keys = {(f.path, f.qualname, f.first) for f in funcs}
    assert reach.report(funcs, keys, set(), []) == 0
    assert reach.report(funcs, keys, set(), ["run"]) == 1
    outside = next(f for f in funcs if f.name not in reach.KEEP)
    key = (outside.path, outside.qualname, outside.first)
    assert reach.report(funcs, keys - {key}, {key}, []) == 1
    out = capsys.readouterr().out
    assert "FAIL path exited non-zero: run" in out
    assert f"FAIL tier-1 only and not in KEEP: {outside.name}" in out


def test_a_file_still_being_written_is_not_read(reach, tmp_path):
    """The recorder writes under a ``PART`` name and renames it into the
    ``*.txt`` glob, so a reader meets only complete files; a malformed row
    in a complete file still raises."""
    (tmp_path / "done.txt").write_text("/src/a.py\tf\t1\n/src/b.py\tC.g\t20")
    (tmp_path / f"torn{reach.PART}").write_text("/src/a.py\tf\t1\n/src/c.py")
    assert reach.recorded(tmp_path) == {("/src/a.py", "f", 1), ("/src/b.py", "C.g", 20)}
    (tmp_path / "bad.txt").write_text("/src/c.py")
    with pytest.raises(ValueError):
        reach.recorded(tmp_path)


def test_the_recorder_leaves_only_complete_files(reach, tmp_path):
    site, out = reach.recorder(tmp_path, "probe")
    source = (site / "sitecustomize.py").read_text()
    assert f"suffix={reach.PART!r}" in source and "os.replace(part, " in source
    assert not Path(f"torn{reach.PART}").match("*.txt")
    code = "from repro.units import mib; mib(1)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(site), str(reach.SRC)])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    (written,) = out.iterdir()
    assert written.suffix == ".txt"
    assert any(qualname == "mib" for _, qualname, _ in reach.recorded(out))
