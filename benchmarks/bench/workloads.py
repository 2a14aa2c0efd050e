"""The six workloads. Every ``FULL_*`` size is multiplied by the run's scale.

Every workload splits a pass in two: ``timed`` is what a user waits for (the
program's calls plus the validation, fingerprinting and figure analysis the
paper workflow always does), ``check`` is the benchmark's own verification of
the outputs and runs off the clock.

This module imports ``repro`` and is therefore only imported by the worker
process, after it has put the tree under test on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ValidationError
from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import ExperimentResult, run_experiment
from repro.framework.population import PopulationConfig, run_population
from repro.framework.store import ResultStore
from repro.framework.sweep import SweepRunner
from repro.framework.validate import validate_result
from repro.metrics.gaps import Distribution, inter_packet_gaps
from repro.metrics.precision import pacing_precision_ns
from repro.metrics.trains import packet_trains, packets_by_train_length
from repro.net.impairments import burst_loss, iid_loss, reordering
from repro.units import kib, mib, ms, seconds

#: The untimed warm-up pass runs at this fraction of the run's scale.
WARM_UP_FACTOR = 0.25

FULL_QUIC_MIB = 16
FULL_TCP_MIB = 48
FULL_FLOWS = 800
FULL_REPS = 24
REP_BYTES = kib(256)
FIGURE_PERCENTILES = (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


@dataclass
class PassResult:
    attempted: int
    failed: int
    wire_pkts: int
    events: int
    #: Units the per-rep framework metrics divide by (runs, populations, reps).
    reps: int
    #: sha256 over the pass's result fingerprints.
    digest: str
    #: Host seconds the program itself reports having simulated in this pass.
    sim_wall_s: float
    disk_bytes: int = 0
    notes: Sequence[str] = ()


def _digest(fingerprints: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()


def _goodput_ok(goodput_mbps: float, network: NetworkConfig) -> bool:
    return 0.0 < goodput_mbps <= network.bottleneck_rate_bps / 1e6


class Workload:
    name = ""
    #: Cores a pass keeps busy when it is not run in-process.
    cores = 1

    def __init__(self, seed: int, scale: float, work_dir: Path, inprocess: bool):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.inprocess = inprocess
        #: Digest of the first pass; later passes of the same inputs must match.
        self.first_digest: Optional[str] = None

    def setup(self) -> None:
        """Build the inputs from ``seed``; everything before the first pass."""

    def timed(self, tracer: Any) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> PassResult:
        raise NotImplementedError

    def _same_as_first(self, digest: str) -> bool:
        if self.first_digest is None:
            self.first_digest = digest
        return digest == self.first_digest


# -- single-flow workloads ---------------------------------------------------


def _gap_figure(records) -> Dict[str, Any]:
    dist = Distribution(inter_packet_gaps(records))
    return {
        "cdf": dist.cdf(),
        "percentiles": [dist.percentile(p) for p in FIGURE_PERCENTILES] if len(dist) else [],
    }


def _train_figure(records) -> Dict[str, Any]:
    return {"trains": packet_trains(records), "by_length": packets_by_train_length(records)}


@dataclass
class _Analysed:
    result: ExperimentResult
    fingerprint: str
    invalid: Optional[str]
    gaps: Dict[str, Any]
    trains: Dict[str, Any]
    precision_ns: float


class Bulk(Workload):
    """One ``run_experiment`` per config, each followed by the paper workflow:
    validate, fingerprint, gap CDF + percentiles, packet trains, pacing
    precision."""

    def configs(self) -> List[ExperimentConfig]:
        raise NotImplementedError

    def setup(self) -> None:
        self._configs = self.configs()
        for config in self._configs:
            config.validate()

    def timed(self, tracer: Any) -> List[_Analysed]:
        out = []
        for config in self._configs:
            result = run_experiment(config, seed=self.seed)
            invalid = None
            try:
                tracer.call("framework.validate_result", validate_result, result)
            except ValidationError as exc:
                invalid = str(exc)
            records = result.server_records
            out.append(
                _Analysed(
                    result=result,
                    fingerprint=result.fingerprint(),
                    invalid=invalid,
                    gaps=tracer.call("metrics.gaps", _gap_figure, records),
                    trains=tracer.call("metrics.trains", _train_figure, records),
                    precision_ns=tracer.call(
                        "metrics.precision", pacing_precision_ns, result.expected_send_log, records
                    ),
                )
            )
        return out

    def check(self, out: List[_Analysed]) -> PassResult:
        digest = _digest([a.fingerprint for a in out])
        same = self._same_as_first(digest)
        notes = []
        failed = 0
        for a in out:
            r = a.result
            percentiles = a.gaps["percentiles"]
            problems = [
                text
                for bad, text in (
                    (not same, "fingerprint differs from the first pass"),
                    (a.invalid is not None, f"validation: {a.invalid}"),
                    (not r.completed, "not completed"),
                    (not _goodput_ok(r.goodput_mbps, r.config.network), f"goodput {r.goodput_mbps}"),
                    (percentiles != sorted(percentiles), "gap percentiles not monotone"),
                    (
                        sum(a.trains["by_length"].values()) != r.packets_on_wire,
                        "train figure lost packets",
                    ),
                    (a.precision_ns < 0, "negative precision"),
                )
                if bad
            ]
            if problems:
                failed += 1
                notes.append(f"{r.config.label}: {'; '.join(problems)}")
        return PassResult(
            attempted=len(out),
            failed=failed,
            wire_pkts=sum(a.result.packets_on_wire for a in out),
            events=sum(a.result.events_processed for a in out),
            reps=len(out),
            digest=digest,
            sim_wall_s=sum(a.result.wall_time_s for a in out),
            notes=notes,
        )


class BulkQuic(Bulk):
    name = "bulk_quic"

    def configs(self) -> List[ExperimentConfig]:
        size = mib(FULL_QUIC_MIB * self.scale)
        return [
            ExperimentConfig(stack="quiche", cca="cubic", qdisc="fq", file_size=size, seed=self.seed),
            ExperimentConfig(stack="picoquic", cca="bbr", file_size=size, seed=self.seed),
            ExperimentConfig(stack="ngtcp2", cca="cubic", file_size=size, seed=self.seed),
        ]


class BulkTcp(Bulk):
    name = "bulk_tcp"

    def configs(self) -> List[ExperimentConfig]:
        size = mib(FULL_TCP_MIB * self.scale)
        return [ExperimentConfig(stack="tcp", cca="cubic", file_size=size, seed=self.seed)]


class QuicOffpath(Bulk):
    name = "quic_offpath"

    def configs(self) -> List[ExperimentConfig]:
        size = mib(FULL_QUIC_MIB * self.scale)
        lossy = NetworkConfig(
            forward_impairments=(burst_loss(), reordering()),
            reverse_impairments=(iid_loss(0.01),),
        )
        quiche = dict(stack="quiche", cca="cubic", file_size=size, seed=self.seed)
        return [
            ExperimentConfig(qdisc="fq", gso="on", **quiche),
            ExperimentConfig(qdisc="etf-offload", gso="paced", **quiche),
            ExperimentConfig(qdisc="fq", network=lossy, **quiche),
        ]


# -- population --------------------------------------------------------------


class Population(Workload):
    name = "population"

    def setup(self) -> None:
        # A frozen copy of benchmarks/perf/manyflow.population_config: the
        # old harness may change, the benchmark's inputs may not.
        self._config = PopulationConfig(
            flows=max(4, round(FULL_FLOWS * self.scale)),
            arrival="poisson",
            arrival_rate_per_s=100.0,
            file_size=kib(64),
            extra_rtt_max_ns=ms(40),
            profiles=("quiche:cubic:fq", "picoquic:bbr", "ngtcp2:cubic", "tcp"),
            max_sim_time_ns=seconds(300),
            churn=False,
            seed=self.seed,
        )
        self._config.validate()

    def timed(self, tracer: Any):
        result = run_population(self._config, seed=self.seed)
        invalid = None
        try:
            result.multi.validate()
        except ValidationError as exc:
            invalid = str(exc)
        return result, result.fingerprint(), invalid

    def check(self, out) -> PassResult:
        result, fingerprint, invalid = out
        digest = _digest([fingerprint])
        flows = result.multi.flows
        notes = []
        if invalid is not None or not self._same_as_first(digest):
            failed = len(flows)
            notes.append(invalid or "fingerprint differs from the first pass")
        else:
            bad = [
                i
                for i, f in enumerate(flows)
                if not f.completed or not _goodput_ok(f.goodput_mbps, self._config.network)
            ]
            failed = len(bad)
            if bad:
                notes.append(f"flows incomplete or goodput out of range: {bad[:10]}")
        return PassResult(
            attempted=len(flows),
            failed=failed,
            wire_pkts=sum(f.wire_packets for f in flows),
            events=result.events_processed,
            reps=1,
            digest=digest,
            sim_wall_s=result.wall_time_s,
            notes=notes,
        )


# -- campaigns ---------------------------------------------------------------


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Campaign(Workload):
    """A sweep grid through the whole persistence stack (cache + journal +
    store). ``cold`` writes a fresh directory every pass; ``warm`` re-serves
    one directory filled during set-up, so every repetition is a cache hit."""

    warm = False

    def setup(self) -> None:
        reps = max(1, round(FULL_REPS * self.scale))
        self._grid = {
            f"{stack}-{cca}-{qdisc}": ExperimentConfig(
                stack=stack, cca=cca, qdisc=qdisc,
                file_size=REP_BYTES, repetitions=reps, seed=self.seed,
            )
            for stack, cca in (
                ("quiche", "cubic"), ("picoquic", "bbr"), ("ngtcp2", "cubic"), ("tcp", "cubic")
            )
            for qdisc in ("none", "fq")
        }
        self._total = reps * len(self._grid)
        self._kept: Optional[Path] = None
        if self.warm:
            # The cold sweep's store content becomes ``first_digest``: every
            # warm pass must reproduce it.
            self._kept = Path(tempfile.mkdtemp(prefix="kept-", dir=self.work_dir))
            cold = self.check(self._sweep(self._kept))
            if cold.failed:
                raise RuntimeError(f"cold pass of {self.name} set-up failed: {cold.notes}")

    def _sweep(self, root: Path):
        store = ResultStore(root / "store.sqlite")
        # Ledger runs stay in one process: spans cannot follow a repetition
        # into a forkserver worker.
        runner = SweepRunner(
            workers=1 if self.inprocess else 2,
            backend="inprocess" if self.inprocess else "forkserver",
            cache=ResultCache(root / "cache"),
            journal_dir=root / "journal",
            store=store,
        )
        return root, store, runner.run(self._grid)

    def timed(self, tracer: Any):
        return self._sweep(self._kept or Path(tempfile.mkdtemp(prefix="cold-", dir=self.work_dir)))

    def check(self, out) -> PassResult:
        root, store, summaries = out
        notes = []
        failed = wire_pkts = events = 0
        sim_wall_s = 0.0
        for name, config in self._grid.items():
            summary = summaries[name]
            failed += config.repetitions - len(summary.results)
            for failure in summary.failures:
                notes.append(failure.describe())
            for r in summary.results:
                wire_pkts += r.packets_on_wire
                events += r.events_processed
                sim_wall_s += r.wall_time_s
                if not r.completed or not _goodput_ok(r.goodput_mbps, config.network):
                    failed += 1
                    notes.append(f"{name} seed {r.seed}: completed={r.completed} goodput={r.goodput_mbps}")
        try:
            stored = store.rep_count()
            content = store.content_fingerprint()
        finally:
            store.close()
        same = self._same_as_first(content)
        if stored != self._total or not same:
            failed = self._total
            notes.append(
                f"store holds {stored} of {self._total} reps; content fingerprint "
                f"{'matches' if same else 'differs from'} the first sweep"
            )
        return PassResult(
            attempted=self._total,
            failed=min(failed, self._total),
            wire_pkts=wire_pkts,
            events=events,
            reps=self._total,
            digest=content,
            # A cache hit carries the seconds its original run took; a warm
            # pass simulated nothing.
            sim_wall_s=0.0 if self.warm else sim_wall_s,
            # Cold directories pile up under ``work_dir`` until the parent
            # removes it after the run: deleting between passes sets off
            # journal and discard work in the kernel that slows the next one.
            disk_bytes=_tree_bytes(root),
            notes=notes,
        )


class CampaignCold(Campaign):
    name = "campaign_cold"
    cores = 2


class CampaignWarm(Campaign):
    name = "campaign_warm"
    warm = True


WORKLOADS = {
    cls.name: cls
    for cls in (BulkQuic, BulkTcp, QuicOffpath, Population, CampaignCold, CampaignWarm)
}
