#!/usr/bin/env python3
"""Which ``src`` functions does a shipped run path reach?

Runs every shipped path under a call recorder, then tier-1 under the same
recorder, and sorts each function under ``src/repro`` into one of three
classes:

* ``run``: a shipped path calls it;
* ``tier-1 only``: only the tests call it;
* ``never``: nothing calls it.

The shipped paths are every CLI subcommand, every ``sweep`` table
(``claims.TABLES``) at 0.25 MiB x 1 on ``--backend inprocess``,
``examples/*.py``, the benchmark harness's ``run`` of every
``BENCHMARK.json`` workload at scale 0.05, and ``benchmarks/test_*.py`` at
their default scale. Tier-1 runs last. Every
path writes under one temporary directory, the default result cache
(``REPRO_CACHE_DIR``) included, which is removed at the end.

The recorder is a ``sitecustomize`` module that the tool writes into a
temporary directory and puts first on ``PYTHONPATH``. Every interpreter a
path starts imports it, forkserver workers and subprocesses included. It
sets ``sys.settrace`` and records the code object of every Python call.
It flushes what it saw at exit, and also in a wrapped ``os._exit``, because
pool workers leave that way and skip ``atexit``.

A function that is not ``run`` must have an entry in :data:`KEEP` that
says why it stays. The tool prints one line per function, then the
problems, and exits 1 when a path exits non-zero, when a function outside
``KEEP`` is not ``run``, or when a ``KEEP`` entry names no function or
gives no reason. A ``KEEP`` entry whose function a path does reach is
reported as stale, but it does not fail the run.

Usage, from anywhere (about ten minutes on two cores):

    python tools/reach.py
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
from repro.framework.claims import TABLES  # noqa: E402  (one `sweep` path per table)

FAILURE = "failure path: runs only when a repetition, an input or a file goes wrong"
INTERFACE = "interface: an abstract method or default hook that every shipped subclass overrides"
CODEC = ("oracle: the wire codec; the simulator never serializes, and tests hold "
         "encoded_len and decode(encode(p)) == p to it")
INLINED = "oracle: the named formula a hot path inlines; a differential test holds the copy to it"
SEAM = ("test seam: lets a test step the engine or read state that the run path "
        "keeps in plain attributes")
ECN = ("ECN on a CCA other than CUBIC: ECN is a config field without a CLI flag, "
       "and the extension grid's ECN entry runs CUBIC")
LONG = "reached only in runs past BBR's 10 s PROBE_RTT interval (paper scale, ~50 MiB)"
CE = ("reached by the extension grid's ecn entry at its own 4 MiB, where the queue passes "
      "the CE threshold; this tool sweeps every grid at 0.25 MiB")
QLOG = "seed of the one-trace work: the qlog writer a run report will build on"
PUBLIC = ("public API: the README quickstart's entry point; the CLI runs the "
          "same SweepRunner underneath")
UNITS = "unit helper of repro.units, tested with the rest of the module"

#: Every ``src`` function that is not ``run``, as ``module:qualname``, with
#: the reason it stays.
KEEP: Dict[str, str] = {
    "repro.cc.base:CongestionController.on_packets_acked": INTERFACE,
    "repro.cc.base:CongestionController.on_packets_lost": INTERFACE,
    "repro.cc.base:CongestionController.on_spurious_loss": INTERFACE,
    "repro.cc.base:CongestionController.on_ecn_ce": ECN,
    "repro.cc.bbr2:Bbr2._enter_probe_bw": LONG,
    "repro.cc.cubic:Cubic.on_ecn_ce": CE,
    "repro.cc.bbr2:Bbr2.on_ecn_ce": ECN,
    "repro.cc.newreno:NewReno.on_ecn_ce": ECN,
    "repro.framework.cache:ResultCache._evict": FAILURE,
    "repro.framework.claims:Verdict.describe": FAILURE,
    "repro.framework.executors:Executor.make_pool": INTERFACE,
    "repro.framework.runner:run_repetitions": PUBLIC,
    "repro.framework.store:_failure_from_row": FAILURE,
    "repro.framework.store:_refusal": FAILURE,
    "repro.framework.store:ResultStore._warn": FAILURE,
    "repro.framework.store:ResultStore.record_failure": FAILURE,
    "repro.framework.supervision:RepFailure.as_dict": FAILURE,
    "repro.framework.supervision:RepFailure.from_dict": FAILURE,
    "repro.framework.supervision:RepFailure.describe": FAILURE,
    "repro.framework.supervision:Supervisor._absorb_crash": FAILURE,
    "repro.framework.supervision:Supervisor._restart_pool": FAILURE,
    "repro.framework.supervision:Supervisor._host_failed": FAILURE,
    "repro.framework.supervision:Supervisor._failure": FAILURE,
    "repro.framework.sweep:SweepRunner._run.<locals>.on_failure": FAILURE,
    "repro.kernel.gso:GsoBuffer.total_payload": SEAM,
    "repro.kernel.gso:GsoBuffer.__len__": SEAM,
    "repro.kernel.qdisc.base:Qdisc.enqueue": INTERFACE,
    "repro.kernel.qdisc.etf:EtfQdisc.backlog_packets": SEAM,
    "repro.kernel.qdisc.fq:FqQdisc.backlog_packets": SEAM,
    "repro.kernel.socket:UdpSocket.flow": FAILURE,
    "repro.kernel.socket:UdpSocket.cpu_free_at": SEAM,
    "repro.kernel.socket:UdpSocket.rx_pending": SEAM,
    "repro.kernel.syscall:SyscallModel.sendmsg_cost": INLINED,
    "repro.kernel.syscall:SyscallModel.sendmmsg_cost": INLINED,
    "repro.metrics.stats:Summary.within": SEAM,
    "repro.net.bottleneck:Bottleneck.queue_bytes": SEAM,
    "repro.net.bottleneck:Bottleneck.queued": SEAM,
    "repro.net.impairments:ImpairmentStage.receive": INTERFACE,
    "repro.net.packet:Datagram.reply_flow": SEAM,
    "repro.net.packet:Datagram.__repr__": SEAM,
    "repro.net.packet:PacketSink.receive": INTERFACE,
    "repro.net.tap:CaptureColumns.__eq__": SEAM,
    "repro.net.tap:Sniffer.__len__": SEAM,
    "repro.pacing.base:Pacer.release_time": INTERFACE,
    "repro.pacing.base:Pacer.commit": INTERFACE,
    "repro.pacing.leaky_bucket:LeakyBucketPacer.credit_bytes": SEAM,
    "repro.pacing.null:NullPacer.release_time": INTERFACE,
    "repro.pacing.null:NullPacer.commit": INTERFACE,
    "repro.quic.ack:AckManager.received_count": SEAM,
    "repro.quic.connection:Connection.transfer_complete": SEAM,
    "repro.quic.flowcontrol:SendLimit.consume": FAILURE,
    "repro.quic.flowcontrol:RecvLimit.check": FAILURE,
    "repro.quic.frames:Frame.encode": INTERFACE,
    "repro.quic.frames:PaddingFrame.encode": CODEC,
    "repro.quic.frames:PaddingFrame.encoded_len": CODEC,
    "repro.quic.frames:PingFrame.encode": CODEC,
    "repro.quic.frames:PingFrame.encoded_len": CODEC,
    "repro.quic.frames:AckFrame.encode": CODEC,
    "repro.quic.frames:AckFrame.acked_packet_numbers": SEAM,
    "repro.quic.frames:CryptoFrame.encode": CODEC,
    "repro.quic.frames:StreamFrame.payload": CODEC,
    "repro.quic.frames:StreamFrame.encode": CODEC,
    "repro.quic.frames:StreamFrame.__eq__": CODEC,
    "repro.quic.frames:MaxDataFrame.encode": CODEC,
    "repro.quic.frames:MaxStreamDataFrame.encode": CODEC,
    "repro.quic.frames:ConnectionCloseFrame.encode": CODEC,
    "repro.quic.frames:HandshakeDoneFrame.encode": CODEC,
    "repro.quic.frames:HandshakeDoneFrame.encoded_len": CODEC,
    "repro.quic.frames:parse_frames": CODEC,
    "repro.quic.frames:_decode_ack": CODEC,
    "repro.quic.h3:parse_frame_header": CODEC,
    "repro.quic.packet:PacketType.long_header": CODEC,
    "repro.quic.packet:QuicPacket.payload_bytes": CODEC,
    "repro.quic.packet:QuicPacket.encode": CODEC,
    "repro.quic.packet:QuicPacket.decode": CODEC,
    "repro.quic.packet:QuicPacket.decode.<locals>.need": CODEC,
    "repro.quic.qlog:QlogEvent.to_dict": QLOG,
    "repro.quic.qlog:_LazyEvent.__init__": QLOG,
    "repro.quic.qlog:_LazyEvent.data": QLOG,
    "repro.quic.qlog:QlogTrace.__init__": QLOG,
    "repro.quic.qlog:QlogTrace.enabled": QLOG,
    "repro.quic.qlog:QlogTrace.log": QLOG,
    "repro.quic.qlog:QlogTrace.log_lazy": QLOG,
    "repro.quic.qlog:QlogTrace.of_type": QLOG,
    "repro.quic.qlog:QlogTrace.to_dict": QLOG,
    "repro.quic.qlog:QlogTrace.save": QLOG,
    "repro.quic.qlog:QlogTrace.__len__": QLOG,
    "repro.quic.qlog:NullTrace.__init__": QLOG,
    "repro.quic.qlog:NullTrace.enabled": QLOG,
    "repro.quic.qlog:NullTrace.log": QLOG,
    "repro.quic.qlog:NullTrace.log_lazy": QLOG,
    "repro.quic.qlog:attach_qlog": QLOG,
    "repro.quic.qlog:attach_qlog.<locals>.on_packet_sent": QLOG,
    "repro.quic.qlog:attach_qlog.<locals>.on_packet_sent.<locals>.build": QLOG,
    "repro.quic.qlog:attach_qlog.<locals>.on_datagram": QLOG,
    "repro.quic.qlog:attach_qlog.<locals>.process_ack": QLOG,
    "repro.quic.qlog:attach_qlog.<locals>.handle_lost": QLOG,
    "repro.quic.ranges:RangeSet.contains": SEAM,
    "repro.quic.ranges:RangeSet.covers": SEAM,
    "repro.quic.ranges:RangeSet.total": SEAM,
    "repro.quic.ranges:RangeSet.__len__": SEAM,
    "repro.quic.stream:DataSource.read": CODEC,
    "repro.quic.stream:SendStream.read": CODEC,
    "repro.quic.stream:SendStream.has_data": SEAM,
    "repro.quic.stream:SendStream.all_acked": SEAM,
    "repro.quic.stream:SendStream.retx_pending_bytes": SEAM,
    "repro.quic.varint:decode_varint": CODEC,
    "repro.sim.clock:TimerModel.fire_time": INLINED,
    "repro.sim.engine:Simulator.peek_time": FAILURE,
    "repro.sim.engine:Simulator.pending": SEAM,
    "repro.sim.engine:Simulator.pending_live": SEAM,
    "repro.sim.engine:Simulator.step": SEAM,
    "repro.sim.process:SimProcess.cancel_timer": SEAM,
    "repro.sim.process:SimProcess.timer_armed": SEAM,
    "repro.sim.process:SimProcess.on_wakeup": INTERFACE,
    "repro.sim.random:RngRegistry.fork": SEAM,
    "repro.stacks.base:SendLog.__eq__": SEAM,
    "repro.stacks.base:SendLog.__iter__": SEAM,
    "repro.units:bytes_per_ns": UNITS,
    "repro.units:rate_bps_from": UNITS,
    "repro.units:fmt_rate": UNITS,
}

#: The suffix a recorder file has while it is written.
PART = ".part"

_SITECUSTOMIZE = '''\
"""Call recorder for tools/reach.py (generated; not part of the project)."""
import atexit
import os
import sys
import tempfile
import threading

_OUT = {out!r}
_SRC = {src!r}
_seen = set()
_add = _seen.add


def _record(frame, event, arg):
    _add(frame.f_code)


def _flush():
    rows = {{
        f"{{code.co_filename}}\\t{{code.co_qualname}}\\t{{code.co_firstlineno}}"
        for code in list(_seen)
        if code.co_filename.startswith(_SRC)
    }}
    # Written under a name outside recorded()'s glob, then renamed into it,
    # so a process killed mid-write leaves no torn file that is read.
    fd, part = tempfile.mkstemp(dir=_OUT, suffix={part!r})
    with os.fdopen(fd, "w") as out:
        out.write("\\n".join(sorted(rows)))
    os.replace(part, part[: -len({part!r})] + ".txt")


_real_exit = os._exit


def _exit(code):
    _flush()
    _real_exit(code)


os._exit = _exit
atexit.register(_flush)
threading.settrace(_record)
sys.settrace(_record)
'''


def run_paths(work: Path) -> List[Tuple[str, List[str]]]:
    """The shipped paths, as (name, argv) pairs; they write only under ``work``."""
    cli = [sys.executable, "-m", "repro"]
    cache = ["--cache-dir", str(work / "cache")]
    small = ["--size-mib", "0.25", "--reps", "1"]
    store, cap = str(work / "run.sqlite"), str(work / "run.csv")
    paths: List[Tuple[str, List[str]]] = [
        ("run", cli + ["run", "quiche", "--size-mib", "0.25", "--reps", "2", "--workers", "2",
                       "--store", store, "--json", str(work / "run.json"), "--capture", cap] + cache),
        # No --cache-dir: the default cache directory, $REPRO_CACHE_DIR.
        ("run --timeout", cli + ["run", "picoquic", "--cca", "bbr", "--size-mib", "0.25",
                                 "--timeout", "60"]),
        ("run impaired", cli + ["run", "quiche", "--size-mib", "0.5", "--loss", "0.01",
                                "--burst-loss", "--reorder", "--duplicate", "0.01",
                                "--rate-flap", "--backend", "inprocess", "--no-cache"]),
        ("run --cca newreno", cli + ["run", "ngtcp2", "--cca", "newreno", "--size-mib", "0.5",
                                     "--loss", "0.02", "--backend", "inprocess", "--no-cache"]),
        ("run --cca bbr2", cli + ["run", "picoquic", "--cca", "bbr2", "--size-mib", "0.5",
                                  "--loss", "0.02", "--backend", "inprocess", "--no-cache"]),
    ]
    for grid in TABLES:
        paths.append((f"sweep {grid}", cli + ["sweep", grid, "--backend", "inprocess"] + small
                      + cache + ["--store", str(work / "sweep.sqlite")]))
    paths += [
        ("sweep warm", cli + ["sweep", "duels", "--backend", "inprocess"] + small + cache),
        ("sweep pooled", cli + ["sweep", "duels", "--workers", "2", "--backend", "forkserver",
                                "--no-cache", "--store", str(work / "pooled.sqlite")] + small),
    ]
    for i in range(2):
        paths.append((f"sweep --shard {i}/2", cli + ["sweep", "duels", "--backend", "inprocess",
                                                     "--shard", f"{i}/2", "--store",
                                                     str(work / f"part-{i}.sqlite")] + small + cache))
    paths += [
        ("store merge", cli + ["store", "merge", str(work / "merged.sqlite"),
                               str(work / "part-0.sqlite"), str(work / "part-1.sqlite")]),
        ("store migrate", cli + ["store", "migrate", str(work / "migrated.sqlite"),
                                 "--from-cache", str(work / "cache")]),
        ("store info", cli + ["store", "info", store]),
        ("store export", cli + ["store", "export", store, "quiche/cubic", str(work / "export.json")]),
        ("query", cli + ["query", store]),
        ("query --metric", cli + ["query", store, "--stack", "quiche", "--metric", "goodput_mbps"]),
        ("query --failures", cli + ["query", store, "--failures"]),
        ("report", cli + ["report", str(work / "sweep.sqlite")]),
        ("report --format md", cli + ["report", str(work / "sweep.sqlite"), "--format", "md"]),
        ("analyze", cli + ["analyze", cap]),
        ("analyze --src", cli + ["analyze", cap, "--src", "10.0.0.1"]),
        ("population", cli + ["population", "--flows", "30", "--size-kib", "48", "--rate", "200",
                              "--workers", "2", "--json", str(work / "pop.json")] + cache),
        ("population --churn", cli + ["population", "--flows", "30", "--size-kib", "48",
                                      "--size-dist", "exp", "--arrival", "uniform", "--churn",
                                      "--no-cache"]),
        ("population --profiles", cli + ["population", "--flows", "4", "--profiles",
                                         "quiche:cubic:etf-offload", "tcp:bbr",
                                         "quiche:cubic:fq:paced",
                                         "quiche:cubic:fq+spurious_rollback=false", "--no-cache"]),
        ("scenarios", cli + ["scenarios"]),
        ("build-info", cli + ["build-info", "--json"]),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        paths.append((f"examples/{example.name}", [sys.executable, str(example)]))
    bench = [sys.executable, str(ROOT / "benchmarks" / "bench" / "__main__.py"), "run",
             "--passes", "1", "--scale", "0.05", "--out-dir", str(work / "bench")]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        bench += ["--workload", workload["name"]]
    paths.append(("benchmarks/bench run", bench))
    benchmarks = sorted(str(p) for p in (ROOT / "benchmarks").glob("test_*.py"))
    paths.append(("benchmarks/test_*.py", [sys.executable, "-m", "pytest", "-q",
                                           "-p", "no:cacheprovider"] + benchmarks))
    return paths


TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


class Function(NamedTuple):
    module: str
    qualname: str
    path: str
    first: int  # first line: the first decorator's, as in ``co_firstlineno``
    lines: int

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def functions() -> Iterator[Function]:
    """Every ``def`` under ``src/repro``, nested ones included."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]

        def visit(node: ast.AST, prefix: str) -> Iterator[Function]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    yield Function(module, qualname, str(path), first,
                                   child.end_lineno - first + 1)
                    yield from visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    yield from visit(child, prefix + child.name + ".")
                else:
                    yield from visit(child, prefix)

        yield from visit(ast.parse(path.read_text(), str(path)), "")


def recorder(base: Path, phase: str) -> Tuple[Path, Path]:
    """A ``sitecustomize`` directory for ``phase`` and the directory it writes to."""
    site, out = base / phase / "site", base / phase / "out"
    site.mkdir(parents=True)
    out.mkdir()
    (site / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(out=str(out), src=str(SRC / "repro"), part=PART)
    )
    return site, out


def recorded(out: Path) -> Set[Tuple[str, str, int]]:
    """Every ``(path, qualname, first line)`` the complete recorder files in
    ``out`` name; a file still being written is a ``PART`` file, not read."""
    seen = set()
    for part in out.glob("*.txt"):
        for row in part.read_text().splitlines():
            path, qualname, first = row.split("\t")
            seen.add((path, qualname, int(first)))
    return seen


def environment(site: Path, work: Path) -> Dict[str, str]:
    """The caller's environment with the recorder first on ``PYTHONPATH``, the
    default cache under ``work``, and no other ``REPRO_*`` setting."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)])
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    return env


def execute(name: str, argv: List[str], env: Dict[str, str], cwd: Path) -> bool:
    start = time.monotonic()
    done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    print(f"[reach] {name}: exit {done.returncode} in {time.monotonic() - start:.1f} s",
          file=sys.stderr, flush=True)
    if done.returncode != 0:
        print(done.stdout[-4000:], file=sys.stderr)
    return done.returncode == 0


def main() -> int:
    base = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        work = base / "work"
        work.mkdir()
        run_site, run_out = recorder(base, "run")
        tier1_site, tier1_out = recorder(base, "tier1")
        run_env = environment(run_site, work)
        failed = [name for name, argv in run_paths(work)
                  if not execute(name, argv, run_env, work)]
        if not execute("tier-1", TIER1, environment(tier1_site, work), ROOT):
            failed.append("tier-1")
        ran, tested = recorded(run_out), recorded(tier1_out)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return report(list(functions()), ran, tested, failed)


def report(funcs: List[Function], ran: Set, tested: Set, failed: List[str]) -> int:
    classes = {"run": [], "tier-1 only": [], "never": []}
    for f in funcs:
        key = (f.path, f.qualname, f.first)
        cls = "run" if key in ran else "tier-1 only" if key in tested else "never"
        classes[cls].append(f)
    for cls, members in classes.items():
        for f in members:
            reason = KEEP.get(f.name, "")
            print(f"{cls:<12} {f.lines:>4}  {f.name}" + (f"  [{reason}]" if reason else ""))
    print()
    for cls, members in classes.items():
        print(f"{cls:<12} {len(members):>4} functions {sum(f.lines for f in members):>6} lines")

    names = {f.name for f in funcs}
    problems = [f"path exited non-zero: {name}" for name in failed]
    problems += [f"{cls} and not in KEEP: {f.name}"
                 for cls in ("tier-1 only", "never") for f in classes[cls] if f.name not in KEEP]
    problems += [f"KEEP names no src function: {name}" for name in KEEP if name not in names]
    problems += [f"KEEP entry without a reason: {name}"
                 for name, reason in KEEP.items() if not reason.strip()]
    stale = sorted({f.name for f in classes["run"]} & KEEP.keys())
    for name in stale:
        print(f"stale KEEP entry (a path reaches it): {name}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
