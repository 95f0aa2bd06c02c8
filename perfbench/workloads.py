"""Measuring processes of the benchmark, started by ``run.py``.

``python3 perfbench/workloads.py pipeline '<json spec>'`` runs
build_dataset -> train_model(FINAL) -> evaluate_model some number of times
and records the sha256 of what each repetition writes; run.py checks that
every repetition, in every process, wrote the same bytes.

``python3 perfbench/workloads.py predict '<json spec>'`` sends ciphertexts one
at a time, in a closed loop, through the user path of ``vigkey predict`` plus
``vigkey baselines <text>``, and checks the answers against the batch and
from-features forms.  It returns every timing; run.py derives the
latencies from the passes of all its rounds.

Each writes one JSON result to ``spec["result"]``.  With ``spec["trace"]``
they also collect the per-layer numbers: the pipeline process through timing
wrappers (``spans.Tracer``), the predict process by timing the public
analysis, estimator and nn functions one text at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from vigkey import analysis, cipher, cli, corpus, estimators, nn, pipeline  # noqa: E402

from inputs import group_letters, input_properties  # noqa: E402
from spans import Tracer, totals_by_name  # noqa: E402

MASK = "FINAL"
# p99 needs at least ten texts beyond it.
MIN_LATENCY_SAMPLES = 1000
LAYER_SAMPLE = 400
REPEATS = 5

ESTIMATORS = {
    estimators.METHOD_IC: (estimators.estimate_ic, estimators.estimate_ic_from_features),
    estimators.METHOD_TWIST: (
        estimators.estimate_twist,
        estimators.estimate_twist_from_features,
    ),
    estimators.METHOD_TWIST_PLUS: (
        estimators.estimate_twist_plus,
        estimators.estimate_twist_plus_from_features,
    ),
    estimators.METHOD_TWIST_PLUS_PLUS: (
        estimators.estimate_twist_plus_plus,
        estimators.estimate_twist_plus_plus_from_features,
    ),
}


def peak_rss_mb() -> float:
    """Max resident set of this process and of its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def us_per_call(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1e6


@contextlib.contextmanager
def worker_env(workers: int):
    saved = os.environ.get("VIGKEY_THREADS")
    os.environ["VIGKEY_THREADS"] = str(workers)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["VIGKEY_THREADS"]
        else:
            os.environ["VIGKEY_THREADS"] = saved


# ---------------------------
# Pipeline process
# ---------------------------


def criterion_6_failures(report: pipeline.EvaluationReport, manifest) -> list[str]:
    """The gates of acceptance criterion 6, as messages for those that fail."""
    failures = []
    if manifest.train_samples < 30_000 or manifest.test_samples < 5_000:
        failures.append(
            f"dataset too small: {manifest.train_samples}/{manifest.test_samples}"
        )
    nn_acc = report.overall[pipeline.METHOD_NN]
    if nn_acc < 0.75:
        failures.append(f"network accuracy {nn_acc:.4f} < 0.75")
    for method in pipeline.BASELINE_METHODS:
        if not nn_acc > report.overall[method]:
            failures.append(f"network does not beat {method}")
    buckets = [report.by_bucket[b][pipeline.METHOD_NN] for b, _, _ in pipeline.LENGTH_BUCKETS]
    if any(a > b for a, b in zip(buckets, buckets[1:])):
        failures.append(f"bucket accuracies not monotone: {buckets}")
    bands = {
        estimators.METHOD_IC: (0.02, 0.15),
        estimators.METHOD_TWIST: (0.10, 0.35),
        estimators.METHOD_TWIST_PLUS: (0.50, 0.80),
        estimators.METHOD_TWIST_PLUS_PLUS: (0.45, 0.80),
    }
    for method, (low, high) in bands.items():
        if not low <= report.overall[method] <= high:
            failures.append(f"{method} accuracy {report.overall[method]:.4f} outside band")
    return failures


def run_pipeline_once(spec: dict, out_dir: Path) -> dict:
    config = pipeline.DatasetConfig(quota_per_length=spec["quota"], seed=spec["seed"])
    t0 = time.perf_counter()
    manifest = pipeline.build_dataset(spec["corpus"], out_dir, config)
    t1 = time.perf_counter()
    model, _ = pipeline.train_model(
        out_dir / pipeline.TRAIN_FILE, pipeline.get_mask(MASK), nn.TrainConfig(seed=spec["seed"])
    )
    t2 = time.perf_counter()
    report = pipeline.evaluate_model(model, out_dir / pipeline.TEST_FILE)
    t3 = time.perf_counter()
    nn.save_model(model, out_dir / "model.json")
    report.save(out_dir / "report.json")
    failures = criterion_6_failures(report, manifest) if spec["criterion_6"] else []
    return {
        "generate_s": t1 - t0,
        "train_s": t2 - t1,
        "evaluate_s": t3 - t2,
        "experiment_s": t3 - t0,
        "sha256": {
            name: sha256(out_dir / name)
            for name in (pipeline.TRAIN_FILE, pipeline.TEST_FILE, "model.json", "report.json")
        },
        "overall": report.overall,
        "failures": failures,
    }


def install_tracer(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""

    def count_bytes(args, kwargs, docs):
        return {"corpus.load_corpus.bytes": sum(len(d.body.encode("utf-8")) for d in docs)}

    def count_csv(args, kwargs, result):
        path, labels = args[0], args[1]
        return {
            "pipeline.write_dataset_csv.rows": len(labels),
            "pipeline.write_dataset_csv.bytes": os.path.getsize(path),
        }

    for owner, attr, name, count, drain in (
        (pipeline, "build_dataset", "pipeline.build_dataset", None, False),
        (pipeline, "train_model", "pipeline.train_model", None, False),
        (pipeline, "evaluate_model", "pipeline.evaluate_model", None, False),
        (corpus, "load_corpus", "corpus.load_corpus", count_bytes, True),
        (corpus, "clean_text", "corpus.clean_text", None, False),
        (corpus, "segment", "corpus.segment",
         lambda a, kw, r: {"corpus.segment.samples": len(r)}, False),
        (cipher, "generate_key", "cipher.generate_key", None, False),
        (cipher, "encrypt", "cipher.encrypt",
         lambda a, kw, r: {"cipher.encrypt.letters": len(a[0])}, False),
        (pipeline, "extract_features", "pipeline.extract_features",
         lambda a, kw, r: {"pipeline.extract_features.texts": len(a[0])}, False),
        (pipeline, "write_dataset_csv", "pipeline.write_dataset_csv", count_csv, False),
        (pipeline, "load_dataset", "pipeline.load_dataset",
         lambda a, kw, r: {"pipeline.load_dataset.rows": len(r[1])}, False),
        (pipeline, "baseline_predictions", "pipeline.baseline_predictions", None, False),
        (pipeline, "evaluate_predictions", "pipeline.evaluate_predictions", None, False),
        (nn, "train", "nn.train", None, False),
        (nn, "gradients", "nn.gradients", None, False),
        (nn, "adam_step", "nn.adam_step", None, False),
        (nn, "forward", "nn.forward", None, False),
        (nn.NetworkModel, "predict_proba", "nn.NetworkModel.predict_proba", None, False),
    ):
        tracer.wrap(owner, attr, name, count=count, drain=drain)


TOP_LEVEL = ("pipeline.build_dataset", "pipeline.train_model", "pipeline.evaluate_model")


def pipeline_layers(tracer: Tracer, epochs: int) -> dict[str, float]:
    t = totals_by_name(tracer.spans)
    c = tracer.counts

    def total(name: str) -> float:
        return t[name].total_s

    return {
        "corpus.load_corpus.s": total("corpus.load_corpus"),
        "corpus.load_corpus.bytes": c["corpus.load_corpus.bytes"],
        "corpus.clean_text.s": total("corpus.clean_text"),
        "corpus.segment.s": total("corpus.segment"),
        "corpus.segment.samples": c["corpus.segment.samples"],
        "cipher.generate_key.s": total("cipher.generate_key"),
        "cipher.generate_key.calls": t["cipher.generate_key"].calls,
        "cipher.encrypt.s": total("cipher.encrypt"),
        "cipher.encrypt.letters": c["cipher.encrypt.letters"],
        "pipeline.extract_features.s": total("pipeline.extract_features"),
        "pipeline.extract_features.texts_per_s": (
            c["pipeline.extract_features.texts"] / total("pipeline.extract_features")
        ),
        "pipeline.write_dataset_csv.s": total("pipeline.write_dataset_csv"),
        "pipeline.write_dataset_csv.rows_per_s": (
            c["pipeline.write_dataset_csv.rows"] / total("pipeline.write_dataset_csv")
        ),
        "pipeline.write_dataset_csv.bytes": c["pipeline.write_dataset_csv.bytes"],
        "pipeline.load_dataset.s": total("pipeline.load_dataset"),
        "pipeline.load_dataset.rows_per_s": (
            c["pipeline.load_dataset.rows"] / total("pipeline.load_dataset")
        ),
        "pipeline.baseline_predictions.s": total("pipeline.baseline_predictions"),
        "pipeline.evaluate_predictions.s": total("pipeline.evaluate_predictions"),
        "nn.train.s": total("nn.train"),
        "nn.train.s_per_epoch": total("nn.train") / epochs,
        "nn.gradients.s": total("nn.gradients"),
        "nn.gradients.calls": t["nn.gradients"].calls,
        "nn.adam_step.s": total("nn.adam_step"),
        "nn.adam_step.calls": t["nn.adam_step"].calls,
        "nn.forward.s": total("nn.forward"),
        "trace.unaccounted_s": sum(t[name].self_s for name in TOP_LEVEL),
    }


def capture_test_texts(every: int, offset: int, sink: list) -> None:
    """Keep every `every`-th text, from `offset`, of the latest extract_features call.

    build_dataset featurizes the train split first and the test split last,
    so after a run `sink` holds (row index, ciphertext) pairs of test.csv.
    """
    original = pipeline.extract_features

    def capturing(texts):
        sink[:] = [(i, texts[i]) for i in range(offset, len(texts), every)]
        return original(texts)

    pipeline.extract_features = capturing


def pipeline_main(spec: dict) -> dict:
    """Run the pipeline once per entry of spec["modes"].

    "serial" runs with VIGKEY_THREADS=1 (set by run.py), "pooled" at the
    default worker count, "traced" serially under the span tracer.  A traced
    run starts with one untraced serial repetition, which gives the overhead.
    """
    work = Path(spec["work"])
    captured: list = []
    capture = spec["capture"]
    if capture:
        capture_test_texts(capture["every"], capture["offset"], captured)
    reps = []
    tracer = Tracer()
    for i, mode in enumerate(spec["modes"]):
        if mode == "traced":
            install_tracer(tracer)
        workers = spec["default_workers"] if mode == "pooled" else 1
        try:
            with worker_env(workers):
                rep = run_pipeline_once(spec, work / f"data{i}")
        except Exception as exc:  # a failed repetition is a failed operation
            rep = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            tracer.restore()
        reps.append(dict(rep, mode=mode))

    result: dict = {"reps": reps, "peak_rss_mb": peak_rss_mb(), "model": None}
    ok = [(i, r) for i, r in enumerate(reps) if "error" not in r]
    if ok:
        data = work / f"data{ok[0][0]}"
        result["model"] = str(data / "model.json")
    if capture and ok:
        with open(data / pipeline.TEST_FILE, encoding="utf-8") as fh:
            labels = [int(line.split(",", 1)[0]) for line in list(fh)[1:]]
        texts = [
            {"raw": group_letters(text), "key_length": labels[i], "kind": "english"}
            for i, text in captured
        ]
        random.Random(capture["seed"]).shuffle(texts)
        Path(capture["out"]).write_text(json.dumps(texts), encoding="utf-8")
    if spec["modes"][:2] == ["serial", "traced"] and all("error" not in r for r in reps[:2]):
        untraced, traced = reps[:2]
        result["layers"] = pipeline_layers(tracer, nn.TrainConfig().epochs)
        result["layers"]["trace.overhead_s"] = traced["experiment_s"] - untraced["experiment_s"]
        result["top_level"] = {
            name: {"traced_s": v.total_s, "self_s": v.self_s}
            for name, v in totals_by_name(tracer.spans).items()
            if name in TOP_LEVEL
        }
        result["spans"] = len(tracer.spans)
        tracer.write(spec["spans_out"])
    return result


# ---------------------------
# Predict process
# ---------------------------


def predict_text(model: nn.NetworkModel, mask, raw: str):
    """The user path: clean, featurize, mask, NN, then the four text estimators."""
    cleaned = corpus.clean_text(raw)
    row = analysis.feature_vector(cleaned).values
    probs = model.predict_proba(pipeline.apply_mask(row, mask))[0]
    k = nn.class_to_key_length(int(np.argmax(probs)))
    preds = tuple(text_form(cleaned) for text_form, _ in ESTIMATORS.values())
    return k, preds, row


def cli_predict(model_path: str, raw: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["predict", model_path, "--text", raw])
    if code != 0:
        raise RuntimeError(f"vigkey predict exited {code}: {err.getvalue().strip()}")
    first = out.getvalue().splitlines()[0]
    return int(first.rsplit(":", 1)[1])


def layer_sample(
    model, mask, model_path: str, texts: list[dict], default_workers: int
) -> tuple[dict, bool]:
    """Per-layer numbers of the predict process, and whether pooled rows match serial ones.

    Each public analysis, estimator and nn function is timed once per text,
    serially, on the first LAYER_SAMPLE texts; the metric is the median.
    """
    sample = [corpus.clean_text(t["raw"]) for t in texts[:LAYER_SAMPLE]]
    per: dict[str, list[float]] = {}

    def record(name: str, fn, *args) -> None:
        per.setdefault(name, []).append(us_per_call(fn, *args))

    def coset_ics(text: str) -> None:
        for m in analysis.COSET_IC_M_RANGE:
            analysis.avg_coset_ic(text, m, strict=False)

    for text in sample:
        record("analysis.feature_vector", analysis.feature_vector, text)
        record("analysis.twist_profile", analysis.twist_profile, text, max(analysis.TWIST_M_RANGE))
        record("analysis.kasiski", analysis.kasiski, text)
        record("analysis.avg_coset_ic", coset_ics, text)
        record("analysis.index_of_coincidence", analysis.index_of_coincidence, text)
        record("analysis.entropy1", analysis.entropy1, text)
        record("analysis.h7", analysis.h7, text)
        record("analysis.delta7", analysis.delta7, text)
        for text_form, _ in ESTIMATORS.values():
            record(f"estimators.{text_form.__name__}", text_form, text)
        masked = pipeline.apply_mask(analysis.feature_vector(text).values, mask)
        record("nn.NetworkModel.predict_proba", model.predict_proba, masked)

    layers = {
        f"{name}.us_per_text": statistics.median(values)
        for name, values in per.items()
        if name != "nn.NetworkModel.predict_proba"
    }
    layers["nn.NetworkModel.predict_proba.us_per_call"] = statistics.median(
        per["nn.NetworkModel.predict_proba"]
    )

    timings = {}
    rows = {}
    for workers in (1, default_workers):
        with worker_env(workers):
            start = time.perf_counter()
            rows[workers] = pipeline.extract_features(sample)
            timings[workers] = time.perf_counter() - start
    layers["pipeline.extract_features.workers"] = default_workers
    layers["pipeline.extract_features.pool_speedup"] = timings[1] / timings[default_workers]
    pool_matches = bool(np.array_equal(rows[1], rows[default_workers]))

    loads = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        nn.load_model(model_path)
        loads.append(time.perf_counter() - start)
    layers["nn.load_model.s"] = statistics.median(loads)

    cli_ms = []
    for t in texts[:REPEATS]:
        start = time.perf_counter()
        cli_predict(model_path, t["raw"])
        cli_ms.append((time.perf_counter() - start) * 1e3)
    layers["cli.main.predict.ms"] = statistics.median(cli_ms)
    return layers, pool_matches


def predict_main(spec: dict) -> dict:
    model = nn.load_model(spec["model"])
    mask = pipeline.get_mask(model.schema_id)
    texts = json.loads(Path(spec["texts"]).read_text(encoding="utf-8"))
    n = len(texts)
    if n < MIN_LATENCY_SAMPLES:
        raise ValueError(f"{n} texts cannot give a p99 with 10 samples beyond it")
    first: list = [None] * n
    bad = [False] * n
    errors: list[str] = []
    timings: list[list[float]] = [[] for _ in range(n)]

    # Whole passes over the texts, in order, until both the pass minimum and
    # the length of this round are reached.  run.py turns the timings into
    # per-text latencies.
    start = time.perf_counter()
    pass_s = []
    while True:
        pass_start = time.perf_counter()
        for j, text in enumerate(texts):
            t0 = time.perf_counter()
            try:
                answer = predict_text(model, mask, text["raw"])
            except Exception as exc:  # a failed call counts against error rate
                answer = None
                errors.append(f"text {j}: {type(exc).__name__}: {exc}")
            timings[j].append(time.perf_counter() - t0)
            if answer is None:
                bad[j] = True
            elif first[j] is None:
                first[j] = answer
            elif answer[:2] != first[j][:2]:
                bad[j] = True
                errors.append(f"text {j}: answer changed between passes")
        pass_s.append(time.perf_counter() - pass_start)
        passes = len(pass_s)
        if spec["trace"] or (
            passes >= spec["min_passes"] and time.perf_counter() - start >= spec["seconds"]
        ):
            break
    rss = peak_rss_mb()

    # Correctness: single-text answers against the batch and from-features forms.
    answered = [j for j in range(n) if first[j] is not None]
    rows = np.array([first[j][2] for j in answered]).reshape(len(answered), -1)
    batch = model.predict_batch(pipeline.apply_mask(rows, mask)) if answered else []
    for j, batch_k, row in zip(answered, batch, rows):
        k, preds, _ = first[j]
        from_rows = tuple(from_features(row) for _, from_features in ESTIMATORS.values())
        if int(batch_k) != k or preds != from_rows:
            bad[j] = True
            errors.append(f"text {j}: single-text answer differs from batch/from-features")
    cli_failed = 0
    for j in answered[:3]:
        try:
            if cli_predict(spec["model"], texts[j]["raw"]) != first[j][0]:
                raise RuntimeError("vigkey predict disagrees with the library path")
        except Exception as exc:
            cli_failed += 1
            errors.append(f"cli text {j}: {exc}")

    def accuracy(index: int | None) -> float:
        hits = 0
        for j in answered:
            k = first[j][0] if index is None else first[j][1][index].predicted_k
            hits += k == texts[j]["key_length"]
        return hits / n

    letters = [corpus.clean_text(t["raw"]) for t in texts]
    result = {
        "calls": n * passes + min(3, len(answered)),
        "failed": passes * sum(bad) + cli_failed,
        "pass_s": pass_s,
        "timings": timings,
        "answers": [
            None if a is None else [a[0], [p.predicted_k for p in a[1]]] for a in first
        ],
        "accuracy_nn": accuracy(None),
        "accuracy": {m: accuracy(i) for i, m in enumerate(ESTIMATORS)},
        "peak_rss_mb": rss,
        "inputs": input_properties(letters, [t["kind"] for t in texts]),
    }
    if spec["trace"]:
        layers, pool_matches = layer_sample(
            model, mask, spec["model"], texts, spec["default_workers"]
        )
        if not pool_matches:
            result["failed"] += 1
            errors.append("pooled feature rows differ from serial rows")
        result["calls"] += 1
        result["layers"] = layers
    result["errors"] = errors[:20]
    return result


def main(argv: list[str]) -> int:
    kind, spec = argv[0], json.loads(argv[1])
    result = pipeline_main(spec) if kind == "pipeline" else predict_main(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
