"""The benchmark's workloads: the chain of commands a smallpunch user runs.

Every workload runs the same steps, so every end-to-end metric exists on
every workload; they differ in the pipeline family and the dataset size:

* ingest   ``dataio.load_curves`` on the dataset manifest;
* cv       ``smallpunch cv`` with the workload's main pipeline;
* cv_alt   ``smallpunch cv`` with its second pipeline;
* train    ``smallpunch train`` of the main pipeline, which saves the model;
* cold     ``smallpunch predict`` of a one-curve manifest with that model;
* serve    a closed loop with one client: each request reads one curve
           file, parses and resamples it and predicts it with the model
           loaded once from the file.

Commands run in process through ``smallpunch.cli.main``.  The program sees
only the files that set-up wrote with ``smallpunch synth``.  Functions are
looked up through their modules at call time so that tracing can replace
them in the namespaces their callers use.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from smallpunch import cli, curves, dataio, evaluation, modelfile, pipeline, synth
from smallpunch.forest import ForestConfig, Leaf

from benchlib import (
    Ledger,
    Tracer,
    median,
    percentile,
    probe_ms,
    root_wall,
    scale_factor,
    self_time_by_name,
    self_times,
    sha256_bytes,
)

NOISE_SIGMA_N = 5.0
CURVES_PER_MATERIAL = 24
# Every round serves this many curves, in chunks between its other steps,
# so that each round has its own p90 with twelve requests beyond it.
SERVE_REQUESTS = 120
SERVE_CHUNKS = 4
COLD_PER_ROUND = 2
SETUP_REPEATS = 3
# An end-to-end run makes at least this many rounds, whatever --seconds says.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    materials: int
    cv_args: tuple[str, ...]
    cv_alt_args: tuple[str, ...]
    train_args: tuple[str, ...]
    spec: pipeline.PipelineSpec  # what `train_args` builds, for the in-memory oracle
    # Loads of the manifest per round; a small dataset loads fast, so it
    # loads more often to sample the step at as many moments of the run.
    ingests_per_round: int
    # A forest routes each row on its own, so a curve predicted alone gets
    # the bits of the batch prediction.  PCA scores come from a matrix
    # product whose rounding depends on the batch shape, so pca-lm
    # predictions of one curve may differ from the batch in the last bits.
    batch_exact: bool


# 50 trees keep one rf `cv` near 3 s, so that every round runs each
# command once; the work per tree is that of a larger forest.
RF_TREES = 50
RF = ("--pipeline", "rf", "--trees", str(RF_TREES))

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="rf-cv",
            materials=5,
            cv_args=RF,
            cv_alt_args=RF + ("--rf-input", "scores"),
            train_args=RF,
            spec=pipeline.PipelineSpec(
                pipeline.ForestKind(config=ForestConfig(n_trees=RF_TREES, seed=0))
            ),
            ingests_per_round=2,
            batch_exact=True,
        ),
        Workload(
            name="linear-ingest",
            materials=25,
            cv_args=("--pipeline", "pca-lm"),
            cv_alt_args=("--pipeline", "empirical"),
            train_args=("--pipeline", "pca-lm"),
            spec=pipeline.PipelineSpec(pipeline.PcaLmKind()),
            ingests_per_round=1,
            batch_exact=False,
        ),
    )
}


# ---------------------------------------------------------------- tracing


def _count_tree(root) -> tuple[int, int]:
    nodes = depth = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if not isinstance(node, Leaf):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return nodes, depth


def _observers(tracer: Tracer) -> dict[str, Callable[[tuple, dict, Any], None]]:
    def forest_fit(args, kwargs, model):
        tracer.count("forest.trees", len(model.trees))
        for root in model.trees:
            nodes, depth = _count_tree(root)
            tracer.count("forest.nodes", nodes)
            tracer.sample("forest.depth", depth)

    def forest_predict(args, kwargs, result):
        tracer.count("forest.rows_x_trees", len(result) * len(args[0].trees))

    def pca_fit(args, kwargs, model):
        tracer.sample("pca.components", model.n_components)

    def parse(args, kwargs, raw):
        tracer.count("curves.parse_rows", raw.displacement_mm.size)

    def load_curves(args, kwargs, result):
        manifest = Path(args[0])
        names, _ = result
        size = manifest.stat().st_size
        size += sum((manifest.parent / name).stat().st_size for name in names)
        tracer.count("dataio.bytes_read", size)

    def save(args, kwargs, result):
        tracer.sample("modelfile.bytes", Path(args[0]).stat().st_size)

    return {
        "forest.fit": forest_fit,
        "forest.predict": forest_predict,
        "pca.fit": pca_fit,
        "curves.parse": parse,
        "dataio.load_curves": load_curves,
        "modelfile.save": save,
    }


# (module, attribute, span name): each public function under the name its
# callers look it up by, because the package imports functions by name.
TRACE_POINTS = [
    (cli, "main", "cli"),
    (cli, "cross_validate", "evaluation.cv"),
    (cli, "fit_pipeline", "pipeline.fit"),
    (cli, "predict_pipeline", "pipeline.predict"),
    (cli, "save_model", "modelfile.save"),
    (cli, "load_model", "modelfile.load"),
    (cli, "generate", "synth.generate"),
    (evaluation, "fit_pipeline", "pipeline.fit"),
    (evaluation, "predict_pipeline", "pipeline.predict"),
    (pipeline, "fit_pipeline", "pipeline.fit"),
    (pipeline, "predict_pipeline", "pipeline.predict"),
    (pipeline, "fit_forest", "forest.fit"),
    (pipeline, "predict_forest", "forest.predict"),
    (pipeline, "fit_pca", "pca.fit"),
    (pipeline, "transform", "pca.transform"),
    (pipeline, "fit_ols", "regress.fit_ols"),
    (pipeline, "predict_linear", "regress.predict"),
    (pipeline, "fit_beta", "regress.fit_beta"),
    (pipeline, "predict_empirical", "regress.predict"),
    (pipeline, "extract_markers", "curves.markers"),
    (pipeline, "assemble", "features.assemble"),
    (pipeline, "fit_standardizer", "features.standardize"),
    (pipeline, "apply_standardizer", "features.standardize"),
    (dataio, "load_curves", "dataio.load_curves"),
    (dataio, "parse_curve_csv", "curves.parse"),
    (dataio, "resample", "curves.resample"),
    (curves, "parse_curve_csv", "curves.parse"),
    (curves, "resample", "curves.resample"),
    (modelfile, "load_model", "modelfile.load"),
    (synth, "generate", "synth.generate"),
] + [
    (dataio, writer, "dataio.write")
    for writer in (
        "write_curve_csv", "write_manifest", "write_truth", "write_fold_csv",
        "write_samples_csv", "write_summary_csv", "write_predictions",
    )
]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Replace every trace point with a recording wrapper, then restore."""
    observers = _observers(tracer)
    saved = []
    try:
        for module, attr, name in TRACE_POINTS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, observers.get(name)))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------- runs


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_curves(got, want) -> bool:
    return len(got) == len(want) and all(
        g.grid == w.grid
        and g.meta == w.meta
        and g.n_extrapolated == w.n_extrapolated
        and same_bits(g.force_N, w.force_N)
        for g, w in zip(got, want)
    )


def file_digests(root: Path, prefix: str) -> dict[str, str]:
    return {
        f"{prefix}/{p.relative_to(root)}": sha256_bytes(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@dataclass
class Reference:
    """The dataset set-up wrote and the oracle it built in memory beside it."""

    data: Path
    curves: list
    model: pipeline.TrainedPipeline
    predictions: np.ndarray
    digests: dict[str, str]
    single: dict[int, float] = field(default_factory=dict)


@dataclass
class Run:
    """One benchmark process: a workload, its seed and what it measured."""

    workload: Workload
    seed: int
    ledger: Ledger = field(default_factory=Ledger)
    tracer: Tracer = field(default_factory=Tracer)
    times: dict[str, list[float]] = field(default_factory=dict)
    # Speed probes taken just before and after each step's samples, by
    # step and in the order they were taken.
    probes: dict[str, list[float]] = field(default_factory=dict)
    probe_log: list[float] = field(default_factory=list)
    # Serve latencies, one list per round.
    serve_rounds: list[list[float]] = field(default_factory=list)

    def round_probes(self) -> list[float]:
        """Every probe taken during the rounds, set-up left out."""
        return [p for key, probes in self.probes.items() if key != "setup" for p in probes]
    # Digest of each command's first output; every repeat must match it.
    outputs: dict[str, str] = field(default_factory=dict)
    rounds: int = 0
    quality: dict[str, float] = field(default_factory=dict)

    def timed(self, key: str, fn: Callable, *args):
        gc.collect()
        before = probe_ms()
        t0 = time.perf_counter()
        result = fn(*args)
        self.times.setdefault(key, []).append(time.perf_counter() - t0)
        after = probe_ms()
        self.probes.setdefault(key, []).extend((before, after))
        self.probe_log.extend((before, after))
        return result

    def command(self, key: str, argv: list[str], product: Path) -> None:
        """Run one CLI command in process; it must write what it wrote first.

        product is the file or directory the command writes; it is removed
        first, so a command that writes nothing cannot pass on old files.
        """
        if product.is_dir():
            shutil.rmtree(product)
        product.unlink(missing_ok=True)
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        code = self.timed(key, call)
        self.ledger.record(code == 0, f"{key}: `smallpunch {' '.join(argv)}` exited {code}")
        digests = {f"stdout/{key}": sha256_bytes(buf.getvalue().encode())}
        if product.is_dir():
            digests.update(file_digests(product, f"out/{product.name}"))
        else:
            written = product.read_bytes() if product.is_file() else b"(missing)"
            digests[f"out/{product.name}"] = sha256_bytes(written)
        self.check_outputs(digests)

    # -- set-up

    def setup(self, tag: str) -> Reference:
        """Write the dataset with `smallpunch synth`, then build the oracle."""
        wl = self.workload
        data = Path(f"data-{tag}")
        with self.tracer.span("setup"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "synth", "--materials", str(wl.materials),
                "--per-material", str(CURVES_PER_MATERIAL),
                "--noise-sigma", repr(NOISE_SIGMA_N), "--seed", str(self.seed),
                "--out", str(data),
            ])
            self.ledger.record(code == 0, f"setup: synth exited {code}")
            cfg = synth.SynthConfig(
                n_materials=wl.materials, curves_per_material=CURVES_PER_MATERIAL,
                noise_sigma_N=NOISE_SIGMA_N, seed=self.seed,
            )
            raw, _ = synth.generate(cfg)
            grid = curves.GridSpec()
            # Curve files hold displacements in whole micrometres, which the
            # generator's millimetre values do not all survive bit for bit,
            # so the oracle is the generated curve at the file's resolution.
            stored = [
                curves.RawCurve(np.round(c.displacement_mm * 1e3) / 1e3, c.force_N, c.meta)
                for c in raw
            ]
            ref_curves = [curves.resample(c, grid) for c in stored]
            self.quality["ingest_vs_generator_max_abs_N"] = max(
                float(np.max(np.abs(curves.resample(c, grid).force_N - r.force_N)))
                for c, r in zip(raw, ref_curves)
            )
            model = pipeline.fit_pipeline(ref_curves, wl.spec)
            predictions = pipeline.predict_pipeline(model, ref_curves)
            lines = (data / "manifest.csv").read_text().splitlines()
            (data / "one_manifest.csv").write_text("\n".join(lines[:2]) + "\n")
        return Reference(data, ref_curves, model, predictions, file_digests(data, "data"))

    def timed_setups(self, repeats: int) -> Reference:
        """Set up several times; every set-up must write the same bytes."""
        refs = []
        for i in range(repeats):
            gc.collect()
            refs.append(self.timed("setup", self.setup, str(i)))
        first = refs[0]
        for other in refs[1:]:
            self.ledger.record(
                other.digests == first.digests, "setup: synth output differs between set-ups"
            )
            self.ledger.record(
                same_bits(other.predictions, first.predictions),
                "setup: in-memory model differs between set-ups",
            )
            shutil.rmtree(other.data)
        data = Path("data")
        first.data.rename(data)
        first.data = data
        return first

    # -- rounds

    def session(self, ref: Reference, min_rounds: int, done: Callable[[], bool]) -> None:
        """train once, then rounds of every step until min_rounds have run and done() holds.

        Each round runs every step, so each step's samples spread over the
        whole run rather than one stretch of it.  That matters on a shared
        machine whose speed drifts over tens of seconds.
        """
        out = Path("out")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        model_path = out / "model.json"
        argv = self.argv(ref)
        order = np.random.default_rng(self.seed).permutation(len(ref.curves))
        chunks = np.array_split(order[:SERVE_REQUESTS], SERVE_CHUNKS)
        gc.collect()
        with self.tracer.span("session"):
            self.command("train", argv["train"], model_path)
            served, _ = modelfile.load_model(model_path)
            with self.tracer.paused():
                from_file = pipeline.predict_pipeline(served, ref.curves)
            self.ledger.record(
                same_bits(from_file, ref.predictions),
                "train: model read from file predicts differently from the in-memory model",
            )
            rounds = 0
            while rounds < min_rounds or not done():
                self.round(ref, served, chunks, argv)
                rounds += 1
            self.rounds += rounds

    def argv(self, ref: Reference) -> dict[str, list[str]]:
        wl = self.workload
        manifest = str(ref.data / "manifest.csv")
        return {
            "cv": ["cv", manifest, *wl.cv_args, "--workers", "1", "--out", "out/cv"],
            "cv_alt": ["cv", manifest, *wl.cv_alt_args, "--workers", "1",
                       "--out", "out/cv_alt"],
            "train": ["train", manifest, *wl.train_args, "--workers", "1",
                      "--out", "out/model.json"],
            "cold": ["predict", str(ref.data / "one_manifest.csv"), "--model",
                     "out/model.json", "--out", "out/one_pred.csv"],
        }

    def round(self, ref: Reference, model, chunks, argv: dict[str, list[str]]) -> None:
        """Every step once, with a chunk of serve requests between the steps."""
        manifest = ref.data / "manifest.csv"
        latencies: list[float] = []
        for _ in range(self.workload.ingests_per_round):
            _, loaded = self.timed(
                "ingest", lambda: dataio.load_curves(manifest, curves.GridSpec())
            )
            self.ledger.record(
                same_curves(loaded, ref.curves),
                "ingest: loaded curves differ from the generated curves",
            )
            del loaded
        self.serve(ref, model, chunks[0], latencies)
        for _ in range(COLD_PER_ROUND):
            self.command("cold", argv["cold"], Path("out/one_pred.csv"))
            row = Path("out/one_pred.csv").read_text().splitlines()[1].split(",")
            self.ledger.record(
                float(row[3]) == self.expected(ref, 0),
                "cold: predict command disagrees with the in-memory model",
            )
        for key, chunk in zip(("cv", "cv_alt"), chunks[1:]):
            self.serve(ref, model, chunk, latencies)
            self.command(key, argv[key], Path("out") / key)
            pipeline_name = argv[key][argv[key].index("--pipeline") + 1]
            summary = (Path("out") / key / f"{pipeline_name}_summary.csv").read_text()
            self.quality[key] = float(summary.splitlines()[1].split(",")[2])
        for chunk in chunks[3:]:
            self.serve(ref, model, chunk, latencies)
        self.command("train", argv["train"], Path("out/model.json"))
        self.serve_rounds.append(latencies)
        self.times.setdefault("serve", []).extend(latencies)

    def serve(self, ref: Reference, model, requests, latencies: list[float]) -> None:
        """Closed loop, one client, one curve file per request."""
        entries = dataio.read_manifest(ref.data / "manifest.csv")
        grid = curves.GridSpec()
        gc.collect()
        for i in requests:
            name, meta = entries[i]
            t0 = time.perf_counter()
            with self.tracer.span("serve.request"):
                text = (ref.data / name).read_text()
                raw = curves.parse_curve_csv(text, meta)
                pred = pipeline.predict_pipeline(model, [curves.resample(raw, grid)])
            latencies.append(time.perf_counter() - t0)
            self.ledger.record(
                same_bits(pred, [self.expected(ref, i)]),
                f"serve: request for {name} disagrees with the in-memory model",
            )

    def expected(self, ref: Reference, i: int) -> float:
        """The in-memory model's prediction for curve i predicted alone."""
        batch = float(ref.predictions[i])
        if self.workload.batch_exact:
            return batch
        if i not in ref.single:
            with self.tracer.paused():
                alone = float(pipeline.predict_pipeline(ref.model, [ref.curves[i]])[0])
            self.ledger.record(
                abs(alone - batch) <= 1e-12 * abs(batch),
                f"curve {i}: predicted alone {alone!r}, in a batch {batch!r}",
            )
            ref.single[i] = alone
        return ref.single[i]

    def check_outputs(self, digests: dict[str, str]) -> None:
        """Every output must have the bytes it had the first time it was written."""
        for key, digest in sorted(digests.items()):
            first = self.outputs.setdefault(key, digest)
            self.ledger.record(
                first == digest, f"round {self.rounds}: {key} differs from its first output"
            )

    def check_against_earlier_runs(self, cache: Path, digests: dict[str, str]) -> None:
        """Same code and seed in an earlier process must have written the same bytes."""
        if cache.is_file():
            earlier = json.loads(cache.read_text())
            for key, digest in sorted(earlier.items()):
                self.ledger.record(
                    digests.get(key) == digest, f"{key} differs from an earlier run's"
                )
            return
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
        os.replace(tmp, cache)


def measure(run: Run, seconds: float) -> Reference:
    """End-to-end run: set up several times, then run rounds for `seconds`."""
    ref = run.timed_setups(SETUP_REPEATS)
    start = time.perf_counter()
    run.session(ref, MIN_ROUNDS, lambda: time.perf_counter() - start >= seconds)
    return ref


def trace(run: Run) -> tuple[Reference, float, float]:
    """One untraced pass, then a traced set-up and a traced pass.

    A pass is `train` and one round, so it runs every step once.
    Returns the reference and the untraced and traced pass times, each
    scaled by the probes taken during it, so that their difference shows
    the tracing rather than a change in the machine's speed.
    """

    def scaled_pass() -> float:
        first = len(run.probe_log)
        t0 = time.perf_counter()
        run.session(ref, 1, lambda: True)
        return (time.perf_counter() - t0) * scale_factor(run.probe_log[first:])

    ref = run.timed_setups(1)
    untraced = scaled_pass()
    run.tracer.enabled = True
    with instrumented(run.tracer):
        traced_ref = run.setup("traced")
        run.ledger.record(
            traced_ref.digests == ref.digests, "setup: traced set-up wrote other bytes"
        )
        shutil.rmtree(traced_ref.data)
        traced = scaled_pass()
    run.tracer.enabled = False
    return ref, untraced, traced


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def serve_ms(run: Run, q: float, scaled: bool = True) -> float:
    """Median over rounds of each round's q-percentile serve latency, in ms.

    A round serves 120 curves, so its p90 has twelve requests beyond it.
    The median over rounds keeps one round that fell into a slow spell of
    the machine from setting the tail of the whole run.  A chunk of
    requests is too short to bracket with probes, so latency is scaled by
    every probe of the rounds.  Over five seeds per workload that brought
    the spread of p90 from 0.14 to 0.06 of the median on rf-cv and left it
    at 0.07-0.08 on linear-ingest.
    """
    factor = scale_factor(run.round_probes()) if scaled else 1.0
    return median([percentile(latencies, q) * 1000.0 * factor for latencies in run.serve_rounds])


def end_to_end(run: Run, import_s: float) -> dict[str, tuple[float, str]]:
    """Step times scaled to the reference speed of the machine.

    Each step's wall time is multiplied by scale_factor() of the speed
    probes taken just before and after its samples.  On a shared virtual
    machine the wall time of the same work drifts by 1.5x and more over
    seconds to minutes; the probe drifts with it, so the scaled time
    follows the program rather than the machine.  Over 35 s windows of a
    six-minute record of forest fits on a 2-vCPU VM, the spread of the
    window mean was 0.21 of the median in wall time and 0.03 scaled.
    Step times are means over the run's samples; serve latency is scaled
    by every probe of the rounds (see serve_ms).  wall() gives them
    unscaled.
    """
    t = run.times
    n_curves = run.workload.materials * CURVES_PER_MATERIAL

    def scaled(key: str, seconds: float) -> float:
        return seconds * scale_factor(run.probes[key])

    return {
        "setup_s": (scaled("setup", import_s + median(t["setup"])), "s"),
        "ingest_curves_per_s": (n_curves * len(t["ingest"]) / scaled("ingest", sum(t["ingest"])), "1/s"),
        "cv_s": (scaled("cv", mean(t["cv"])), "s"),
        "cv_alt_s": (scaled("cv_alt", mean(t["cv_alt"])), "s"),
        "train_s": (scaled("train", mean(t["train"])), "s"),
        "predict_p90_ms": (serve_ms(run, 0.9), "ms"),
    }


def unbounded(run: Run) -> dict[str, tuple[float, str]]:
    """Measured and printed, but not end-to-end metrics of BENCHMARK.json."""
    return {
        "cold_predict_s": (mean(run.times["cold"]) * scale_factor(run.probes["cold"]), "s"),
        "predict_p50_ms": (serve_ms(run, 0.5), "ms"),
    }


def wall(run: Run, import_s: float) -> dict[str, tuple[float, str]]:
    """The scaled step times of end_to_end() and unbounded(), unscaled."""
    t = run.times
    n_curves = run.workload.materials * CURVES_PER_MATERIAL
    return {
        "wall_setup_s": (import_s + median(t["setup"]), "s"),
        "wall_ingest_curves_per_s": (n_curves * len(t["ingest"]) / sum(t["ingest"]), "1/s"),
        "wall_cv_s": (mean(t["cv"]), "s"),
        "wall_cv_alt_s": (mean(t["cv_alt"]), "s"),
        "wall_train_s": (mean(t["train"]), "s"),
        "wall_predict_p90_ms": (serve_ms(run, 0.9, scaled=False), "ms"),
        "wall_cold_predict_s": (mean(t["cold"]), "s"),
        "wall_predict_p50_ms": (serve_ms(run, 0.5, scaled=False), "ms"),
        "probe_ms": (mean([p for probes in run.probes.values() for p in probes]), "ms"),
    }


def per_layer(run: Run, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """Layer metrics of the traced set-up and pass; self times in s."""
    spans = run.tracer.spans
    own = self_time_by_name(spans)
    counts = run.tracer.counters
    samples = run.tracer.samples
    wall = root_wall(spans)

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    depths = samples.get("forest.depth", [])
    components = samples.get("pca.components", [])
    return {
        "forest.fit_s": (s("forest.fit"), "s"),
        "forest.trees_per_s": (rate(counts.get("forest.trees", 0), s("forest.fit")), "1/s"),
        "forest.nodes": (counts.get("forest.nodes", 0), "count"),
        "forest.max_depth": (max(depths, default=0), "count"),
        "forest.predict_s": (s("forest.predict"), "s"),
        "forest.rows_x_trees_per_s": (
            rate(counts.get("forest.rows_x_trees", 0), s("forest.predict")), "1/s"),
        "forest.self_share": (rate(s("forest.fit") + s("forest.predict"), wall), "ratio"),
        "modelfile.save_s": (s("modelfile.save"), "s"),
        "modelfile.load_s": (s("modelfile.load"), "s"),
        "modelfile.bytes": (max(samples.get("modelfile.bytes", []), default=0), "B"),
        "curves.parse_s": (s("curves.parse"), "s"),
        "curves.parse_rows": (counts.get("curves.parse_rows", 0), "count"),
        "curves.resample_s": (s("curves.resample"), "s"),
        "curves.markers_s": (s("curves.markers"), "s"),
        "dataio.load_curves_s": (s("dataio.load_curves"), "s"),
        "dataio.bytes_read": (counts.get("dataio.bytes_read", 0), "B"),
        "dataio.write_s": (s("dataio.write"), "s"),
        "features.assemble_s": (s("features.assemble"), "s"),
        "features.standardize_s": (s("features.standardize"), "s"),
        "pca.fit_s": (s("pca.fit"), "s"),
        "pca.transform_s": (s("pca.transform"), "s"),
        "pca.components": (sum(components) / len(components) if components else 0, "count"),
        "regress.fit_ols_s": (s("regress.fit_ols"), "s"),
        "regress.fit_beta_s": (s("regress.fit_beta"), "s"),
        "regress.predict_s": (s("regress.predict"), "s"),
        "pipeline.fit_self_s": (s("pipeline.fit"), "s"),
        "pipeline.predict_self_s": (s("pipeline.predict"), "s"),
        "evaluation.cv_self_s": (s("evaluation.cv"), "s"),
        "cli.self_s": (s("cli"), "s"),
        "synth.generate_s": (s("synth.generate"), "s"),
        "serve.request_self_s": (s("serve.request"), "s"),
        "bench.self_s": (s("setup") + s("session"), "s"),
        "evaluation.rmse_MPa": (run.quality["cv"], "MPa"),
        "evaluation.rmse_alt_MPa": (run.quality["cv_alt"], "MPa"),
        "trace.observe_s": (s("trace.observe"), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.self_sum_s": (sum(self_times(spans)), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
