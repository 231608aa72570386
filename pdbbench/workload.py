"""The two benchmark workloads: set-up, the closed-loop client, and samples.

Both workloads run the same closed loop with one client thread and a
proving service with one worker thread (``ServiceConfig(workers=1)``,
job journal on).  A round submits the workload's jobs, waits for all of
them, checks every answer against the plain SQL executor, and then runs
the client's checks:

* ``ops-service`` submits one job for each of the five operator shapes
  and checks that round's five answers.  The prover does most of the
  work.
* ``verify-client`` submits one job (the date filter) and checks a
  fixed set of five proofs made once before the measured rounds.  The
  prover is idle for most of a round, so prover-only changes should
  leave its verify metrics unchanged.  Each round the client must also
  reject a byte-flipped proof and a tampered ``PDBA`` aggregate.

The client's checks are: a warm verify of each proof from wire bytes,
a cold verify of each proof with a new ``VerifierNode`` (the verifying
key is rebuilt), one ``batch_verify`` of the set, and ``aggregate`` plus
``verify_aggregate`` of the set's ``PDBA`` bytes.

The first round is a warm-up and contributes no sample.  Every timing
is a sample list; the caller reports medians.

The host's speed drifts by +-25% over tens of seconds, so a wall time
alone does not repeat from run to run.  Each gated timing is therefore
also scaled to a reference speed: a fixed loop of 255-bit modular
squarings (the probe, independent of the program) runs before and
after every client operation and before each round's jobs, and the
round's timings are multiplied by ``REFERENCE_PROBE_S / median(the
round's probe times)``.  Both the raw and the scaled samples are kept.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import (
    JobFailed,
    JobTimeout,
    PoneglyphDB,
    ProverConfig,
    ReproError,
    ServiceConfig,
    VerifierNode,
)
from repro.algebra import fft_plan
from repro.algebra.field import SCALAR_FIELD
from repro.ecc import fixed_base
from repro.plonkish.assignment import Assignment
from repro.proving.aggregate import aggregate
from repro.proving.keygen import cached_keygen
from repro.proving.proof import Proof
from repro.sql.compiler import QueryCompiler
from repro.sql.executor import Executor
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.tpch.datagen import generate

#: Circuit size and TPC-H scale.  k=5 keeps a five-proof round near ten
#: seconds on a 2-core host, so a run holds a warm-up round plus enough
#: measured rounds for medians.
K = 5
LINEITEM_ROWS = 16
#: The reduced bench geometry (limb / value / key bits).
GEOMETRY = dict(limb_bits=4, value_bits=32, key_bits=40)
#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: A job that takes longer than this counts as failed.
JOB_TIMEOUT_S = 60.0
#: The speed probe: modular squarings over a 255-bit prime (the Pallas
#: scalar field order), the big-integer work proving and verifying
#: spend their time in.
PROBE_MODULUS = 0x40000000000000000000000000000000224698FC0994A8DD8C46EB2100000001
PROBE_STEPS = 3000
#: Probe time at the reference speed (the median on a 2-core 2.1 GHz
#: Xeon VM); scaled timings read as seconds at that speed.
REFERENCE_PROBE_S = 0.0017


def probe() -> float:
    """Seconds the fixed probe loop takes right now: the median of three
    passes, so one interrupted pass does not skew it."""
    passes = []
    for _ in range(3):
        x = 3**100
        t0 = time.perf_counter()
        for _ in range(PROBE_STEPS):
            x = x * x % PROBE_MODULUS
        passes.append(time.perf_counter() - t0)
    return sorted(passes)[1]


def scale(probes: list[float]) -> float:
    """Factor from measured to reference-speed seconds."""
    return REFERENCE_PROBE_S / statistics.median(probes)


@dataclass(frozen=True)
class Shape:
    name: str
    sql: str


#: The paper's basic operator circuits, one query each.
OPERATOR_SHAPES = (
    Shape(
        "date_filter",
        "select count(*) as n from lineitem "
        "where l_shipdate <= date '1998-09-02'",
    ),
    Shape(
        "group_by",
        "select l_returnflag, sum(l_quantity) as sum_qty, count(*) as n "
        "from lineitem group by l_returnflag",
    ),
    Shape(
        "pk_fk_join",
        "select count(*) as n from orders, lineitem "
        "where l_orderkey = o_orderkey",
    ),
    Shape(
        "order_limit",
        "select l_orderkey, l_extendedprice from lineitem "
        "order by l_extendedprice desc limit 5",
    ),
    Shape(
        "arith_sum",
        "select sum(l_extendedprice * (1 - l_discount)) as revenue "
        "from lineitem where l_discount >= 0.05",
    ),
)

#: Self-test shapes: the smallest tables, so a smoke run is quick.
TINY_SHAPES = (
    Shape("tiny_filter", "select count(*) as n from nation where n_regionkey >= 2"),
    Shape("tiny_count", "select count(*) as n from region"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Shapes submitted to the service, once each per round.
    jobs: tuple[Shape, ...]
    #: True: the client checks a fixed set of proofs of ``shapes`` made
    #: before the first round, plus the negative controls.  False: the
    #: client checks the round's own answers.
    fixed_set: bool
    #: Every shape the workload proves (set-up keygens all of them).
    shapes: tuple[Shape, ...]


def workload(name: str, tiny: bool = False) -> Workload:
    shapes = TINY_SHAPES if tiny else OPERATOR_SHAPES
    if name == "ops-service":
        return Workload(name, shapes, fixed_set=False, shapes=shapes)
    if name == "verify-client":
        return Workload(name, shapes[:1], fixed_set=True, shapes=shapes)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Samples:
    """The samples and failures of one run (or of the warm-up).

    ``times`` holds reference-speed seconds for the gated timings and
    plain values for everything else; ``raw`` the gated timings' wall
    seconds."""

    times: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.times.setdefault(name, []).append(value)

    def timed(self, name: str, seconds: float, factor: float) -> None:
        self.add(name, seconds * factor)
        self.raw.setdefault(name, []).append(seconds)

    def fail(self, what: str) -> None:
        self.failures.append(what)


@dataclass
class ShapeFacts:
    """What the oracle and the property report know about one shape."""

    expected: list[list[int]]
    advice_columns: int
    lookups: int
    advice_cells: int
    advice_zeros: int
    extended_k: int = 0

    @property
    def zero_share(self) -> float:
        return self.advice_zeros / self.advice_cells


def data_seed(seed: int) -> int:
    return 1_000_003 * seed + 17


def prover_config(cache_dir: Path, traced: bool) -> ProverConfig:
    return ProverConfig(
        k=K, workers=0, cache_dir=cache_dir, use_cache=True,
        scale=LINEITEM_ROWS, telemetry=traced, field_backend="auto",
        **GEOMETRY,
    )


def compile_shape(db, shape: Shape):
    plan = Planner(db).plan(parse(shape.sql))
    return plan, QueryCompiler(db, K, **GEOMETRY).compile(plan)


def shape_facts(db, shape: Shape, field_) -> ShapeFacts:
    """Executor answer, circuit size and advice sparsity of ``shape``."""
    plan, compiled = compile_shape(db, shape)
    expected = [list(row.values()) for row in Executor(db).execute(plan).rows()]
    asg = Assignment(compiled.cs, field_, K)
    compiled.assign_witness(asg, db)
    usable = asg.usable_rows
    zeros = sum(col[:usable].count(0) for col in asg.advice)
    summary = compiled.cs.summary()
    return ShapeFacts(
        expected=expected,
        advice_columns=summary["advice_columns"],
        lookups=summary["lookups"],
        advice_cells=usable * len(asg.advice),
        advice_zeros=zeros,
    )


class Bench:
    """One run of one workload: owns the session, service and client."""

    def __init__(self, spec: Workload, seed: int, workdir: Path, traced: bool):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.rng = random.Random(seed)
        self.samples = Samples()
        self.session = None
        self.service = None
        self.client: VerifierNode | None = None
        self.facts: dict[str, ShapeFacts] = {}
        self.proof_sizes: dict[str, int] = {}
        self.fixed: list[tuple[Shape, object]] = []
        self.setup_parts: dict[str, list[float]] = {}
        self.last_aggregate = b""
        self.jobs_submitted = 0
        self.round_probes: list[float] = []
        self.pending: list[tuple[str, float]] = []
        self.setup_raw: list[float] = []

    # -- set-up -----------------------------------------------------------

    def cold_setup(self, index: int) -> tuple[float, list[float]]:
        """One cold set-up in an empty cache directory: params, datagen,
        DB commitment, keygen of every shape, client verifying keys.
        Returns (seconds, probe times before and after)."""
        if self.session is not None:
            # Closing restores the global settings the session changed,
            # so it must happen before the next session opens.
            self.session.close()
        fixed_base.clear_registry()
        fft_plan.clear_cache()
        cache_dir = self.workdir / f"setup-{index}"
        # A set-up lasts about a second; several probes on each side
        # average out the host's speed over it.
        before = [probe() for _ in range(3)]
        t0 = time.perf_counter()
        db = generate(LINEITEM_ROWS, seed=data_seed(self.seed))
        t1 = time.perf_counter()
        session = PoneglyphDB.open(db, prover_config(cache_dir, self.traced))
        t2 = time.perf_counter()
        session.commit()
        t3 = time.perf_counter()
        keys = {}
        for shape in self.spec.shapes:
            _, compiled = compile_shape(db, shape)
            keys[shape.name], _ = cached_keygen(
                session.cache, session.params, compiled.cs,
                session.config.field, K,
            )
        t4 = time.perf_counter()
        client = VerifierNode(
            session.params, session.prover.public_metadata(),
            session.commitment, session.config.field,
        )
        for shape in self.spec.shapes:
            client.rebuild_verifying_key(
                shape.sql, len(self.facts[shape.name].expected)
            )
        t5 = time.perf_counter()
        probes = before + [probe() for _ in range(3)]
        for name, seconds in (
            ("params.setup_s", t2 - t1), ("db.commit_s", t3 - t2),
            ("keygen.cold_s", t4 - t3),
        ):
            self.setup_parts.setdefault(name, []).append(seconds)
        for shape in self.spec.shapes:
            self.facts[shape.name].extended_k = keys[shape.name].vk.extended_k
        self.session, self.client = session, client
        return t5 - t0, probes

    def setup(self, setups: int) -> list[float]:
        """Run ``setups`` cold set-ups; return their reference-speed
        seconds, all scaled by the median of their probes."""
        oracle_db = generate(LINEITEM_ROWS, seed=data_seed(self.seed))
        for shape in self.spec.shapes:
            self.facts[shape.name] = shape_facts(oracle_db, shape, SCALAR_FIELD)
        runs = [self.cold_setup(i) for i in range(setups)]
        factor = scale([p for _, probes in runs for p in probes])
        self.setup_raw = [seconds for seconds, _ in runs]
        return [seconds * factor for seconds in self.setup_raw]

    def start(self) -> None:
        """Prove the fixed set (verify-client) and start the service."""
        if self.spec.fixed_set:
            for shape in self.spec.shapes:
                self.samples.attempted += 1
                response = self.session.prove(shape.sql)
                if self.answer_ok(shape, response, self.samples):
                    self.fixed.append((shape, response))
        self.service = self.session.serve(
            ServiceConfig(workers=1),
            journal_path=self.workdir / "jobs.journal",
        )

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.session is not None:
            self.session.close()

    # -- checks -----------------------------------------------------------

    def answer_ok(self, shape: Shape, response, samples: Samples) -> bool:
        """Oracle check against the executor, plus a constant proof size
        per shape."""
        if response.result_encoded != self.facts[shape.name].expected:
            samples.fail(f"{shape.name}: answer differs from the executor")
            return False
        size = len(response.wire_bytes())
        if self.proof_sizes.setdefault(shape.name, size) != size:
            samples.fail(f"{shape.name}: proof size changed to {size}")
            return False
        return True

    def verified(self, samples: Samples, what: str, check) -> float | None:
        """Run a verification that must accept, between two probes.

        Returns its wall seconds, or None when it rejected or raised: a
        failed operation gives no sample."""
        samples.attempted += 1
        self.round_probes.append(probe())
        t0 = time.perf_counter()
        try:
            report = check()
        except ReproError as exc:
            samples.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None
        finally:
            seconds = time.perf_counter() - t0
            self.round_probes.append(probe())
        if not report.accepted:
            samples.fail(f"{what}: rejected ({report.reason})")
            return None
        return seconds

    def rejected(self, samples: Samples, what: str, check) -> None:
        """Run a verification that must reject; acceptance is a failure."""
        samples.attempted += 1
        try:
            report = check()
        except ReproError:
            return
        if report.accepted:
            samples.fail(f"{what}: tampered input accepted")

    # -- one round --------------------------------------------------------

    def round(self, samples: Samples) -> tuple[int, float, float, float]:
        """Run one round.  Returns (jobs completed, worker busy seconds,
        round wall seconds, the round's reference-speed factor)."""
        # Timings wait here until the round's speed factor is known.
        self.pending = []
        t_round = time.perf_counter()
        # Probes run only while the worker is idle, so they see the
        # host's speed rather than contention for the interpreter lock.
        self.round_probes = [probe()]
        submitted = [(s, self.service.submit(s.sql)) for s in self.spec.jobs]
        self.jobs_submitted += len(submitted)
        finished = []
        for shape, job in submitted:
            samples.attempted += 1
            try:
                response = self.service.wait(job, timeout=JOB_TIMEOUT_S)
            except (JobFailed, JobTimeout) as exc:
                samples.fail(f"job {shape.name}: {exc}")
                continue
            finished.append((shape, response, self.service.status(job)))
        self.round_probes.append(probe())
        answers, busy = [], 0.0
        for shape, response, status in finished:
            run_s = status.finished_at - status.started_at
            busy += run_s
            self.pending.append(("job_latency_s", status.finished_at - status.submitted_at))
            samples.add("service.queue_wait_s", status.started_at - status.submitted_at)
            samples.add("service.run_s", run_s)
            traced = "traced" if response.report is not None else "untraced"
            self.pending.append((f"run_s.{traced}", run_s))
            samples.add("service.retries", status.attempts)
            if response.report is not None:
                self.record_report(response.report, samples)
            if self.answer_ok(shape, response, samples):
                answers.append((shape, response))
        for shape, response in answers + self.fixed:
            seconds = self.verified(samples, f"verify {shape.name}",
                                    lambda: self.client.verify(response))
            if seconds is not None:
                self.pending.append(("verify_s", seconds))
                samples.add("proof_bytes", len(response.wire_bytes()))
            if self.traced:
                self.time_decode(shape, response, samples)
        checked = self.fixed if self.spec.fixed_set else answers
        for shape, response in checked:
            self.cold_verify(shape, response, samples)
        if checked:
            self.settle([r for _, r in checked], samples)
        if self.spec.fixed_set:
            self.negative_controls(samples)
        wall = time.perf_counter() - t_round
        factor = scale(self.round_probes)
        for name, seconds in self.pending:
            samples.timed(name, seconds, factor)
        return len(answers), busy, wall, factor

    def time_decode(self, shape: Shape, response, samples: Samples) -> None:
        _, vk = self.client.rebuild_verifying_key(
            shape.sql, len(response.result_encoded)
        )
        t0 = time.perf_counter()
        Proof.from_bytes(vk, response.wire_bytes())
        samples.add("verifier.decode_s", time.perf_counter() - t0)

    def cold_verify(self, shape: Shape, response, samples: Samples) -> None:
        """Verify with a new VerifierNode: the vk is rebuilt first."""
        session = self.session
        node = VerifierNode(
            session.params, session.prover.public_metadata(),
            session.commitment, session.config.field,
        )

        def check():
            t0 = time.perf_counter()
            node.rebuild_verifying_key(shape.sql, len(response.result_encoded))
            samples.add("verifier.vk_rebuild_s", time.perf_counter() - t0)
            return node.verify(response)

        seconds = self.verified(samples, f"cold verify {shape.name}", check)
        if seconds is not None:
            self.pending.append(("verify_cold_s", seconds))

    def settle(self, responses: list, samples: Samples) -> None:
        """One batch verify and one aggregate verify of the set."""
        n = len(responses)
        seconds = self.verified(samples, "batch verify",
                                lambda: self.client.batch_verify(responses))
        if seconds is not None:
            self.pending.append(("batch_verify_per_proof_s", seconds / n))
        t0 = time.perf_counter()
        raw = aggregate(responses, self.session.params).to_bytes()
        samples.add("aggregate.build_s", time.perf_counter() - t0)
        samples.add("aggregate.bytes", len(raw))
        seconds = self.verified(samples, "aggregate verify",
                                lambda: self.client.verify_aggregate(raw))
        if seconds is not None:
            self.pending.append(("agg_verify_per_proof_s", seconds / n))
        self.last_aggregate = raw

    def negative_controls(self, samples: Samples) -> None:
        """A byte-flipped proof and a tampered aggregate must both fail."""
        shape, response = self.fixed[self.rng.randrange(len(self.fixed))]
        wire = bytearray(response.wire_bytes())
        wire[self.rng.randrange(len(wire))] ^= 1 << self.rng.randrange(8)
        flipped = dataclasses.replace(response, proof_bytes=bytes(wire))
        self.rejected(samples, f"flipped {shape.name} proof",
                      lambda: self.client.verify(flipped))
        agg = bytearray(self.last_aggregate)
        agg[self.rng.randrange(8, len(agg))] ^= 1 << self.rng.randrange(8)
        self.rejected(samples, "tampered aggregate",
                      lambda: self.client.verify_aggregate(bytes(agg)))

    # -- traced-run bookkeeping ------------------------------------------

    #: report phase -> per-layer metric
    PHASES = {
        "compile": "sql.compile_s",
        "witness": "plonkish.witness_s",
        "keygen": "keygen.fetch_s",
        "commit_advice": "prover.commit_advice_s",
        "lookup_commit": "prover.lookup_commit_s",
        "grand_products": "prover.grand_products_s",
        "quotient": "prover.quotient_s",
        "evaluations": "prover.evaluations_s",
        "multiopen": "prover.multiopen_s",
    }
    #: report counter -> per-layer metric
    COUNTERS = {
        "msm.fixed_base_calls": "ecc.fixed_base_msms",
        "msm.fixed_base_points": "ecc.fixed_base_points",
        "msm.calls": "ecc.msm_calls",
        "msm.points": "ecc.msm_points",
        "fft.calls": "algebra.fft_calls",
        "fft.points": "algebra.fft_points",
        "field.inversions": "algebra.inversions",
    }

    def record_report(self, report: dict, samples: Samples) -> None:
        phases = report.get("phases", {})
        for phase, metric in self.PHASES.items():
            samples.add(metric, phases.get(phase, 0.0))
        counters = report.get("counters", {})
        for counter, metric in self.COUNTERS.items():
            samples.add(metric, counters.get(counter, 0))
        samples.add("prover.coverage", report.get("phase_coverage", 0.0))
        samples.add("traced_run_s", report.get("total_seconds", 0.0))
