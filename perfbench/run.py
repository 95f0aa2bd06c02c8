"""vigkey benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload experiment --seed 606 --seconds 6 --trace 0

Run it from the root of a vigkey checkout.  Workloads, metrics and the
layer-metric map are described in ``perfbench/README.md``.

The process writes its inputs under ``perfbench/.work/``, starts the measuring
processes of ``workloads.py`` (each in a fresh interpreter), times a fresh
``import vigkey`` for ``setup_s``, and prints one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
its per-layer ones, in the order and with the units declared there.  Lines
before the last one describe the machine, the inputs and the artifacts'
sha256 sums.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("experiment", "predict_long")
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 11
# One in seven test-split ciphertexts (1,075 of 7,525) feeds the experiment's
# latency loop; the workload seed picks the offset and the order.
EXPERIMENT_CAPTURE_EVERY = 7
# The two rounds of the latency loop make at least this many whole passes
# each, and last --seconds together.
ROUND_PASSES = (1, 2)
# The measuring processes run numpy's BLAS on one thread.  On two vCPUs its
# default of one thread per core spends twice the CPU time on nn training
# for no less wall time, and that wall time then depends on whether another
# tenant holds the second core.
CHILD_ENV = {"VIGKEY_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def run_child(kind: str, spec: dict, deadline: float) -> dict:
    """Run workloads.py in a fresh interpreter; kill it if it outlives the deadline."""
    spec = dict(spec, result=str(Path(spec["work"]) / f"{kind}.result.json"))
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), kind, json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{kind} process exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise ChildFailed(f"{kind} process exited with code {code}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def setup_seconds(model_path: str | None) -> float:
    """Median wall time of a fresh interpreter importing vigkey (and loading the model)."""
    code = "import sys; sys.path.insert(0, 'src'); from vigkey import cli, nn"
    if model_path is not None:
        code += f"; nn.load_model({model_path!r})"
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def machine_info() -> dict:
    from vigkey import pipeline
    import numpy

    saved = os.environ.pop("VIGKEY_THREADS", None)
    try:
        default_workers = pipeline.worker_count()
    finally:
        if saved is not None:
            os.environ["VIGKEY_THREADS"] = saved
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pipeline.worker_count": default_workers,
        "measuring_process_env": CHILD_ENV,
    }


def latency_stats(rounds: list[dict]) -> dict:
    """Per-text latency over every pass of every round, and its percentiles.

    A text's latency is the fastest of its passes: every pass computes the
    same answer, so a slower one is time the machine gave to someone else.
    The percentiles of the per-text medians are reported beside them.
    """
    timings = [sum(per_text, []) for per_text in zip(*(r["timings"] for r in rounds))]
    fastest = [min(t) for t in timings]
    cuts = statistics.quantiles(fastest, n=100, method="inclusive")
    median_cuts = statistics.quantiles(
        [statistics.median(t) for t in timings], n=100, method="inclusive"
    )
    return {
        "samples": len(fastest),
        "latency_p50_ms": cuts[49] * 1e3,
        "latency_p99_ms": cuts[98] * 1e3,
        "texts_per_s": len(fastest) / sum(fastest),
        "median_of_passes_ms": {"p50": median_cuts[49] * 1e3, "p99": median_cuts[98] * 1e3},
    }


def measure(args: argparse.Namespace, work: Path, deadline: float) -> tuple[dict, dict]:
    import inputs

    machine = machine_info()
    # Never ask the pool for more workers than this process may run on.
    default_workers = min(machine["pipeline.worker_count"], machine["nproc"])
    corpus_dir = work / "corpus"
    texts_path = work / "texts.json"
    if args.workload == "experiment":
        # Criterion 6 exactly: corpus, dataset and training seed 606.  The
        # workload seed picks which test ciphertexts feed the latency loop;
        # the first pipeline process writes them to texts_path.
        inputs.write_experiment_corpus(corpus_dir)
        pipe_spec = {"quota": inputs.EXPERIMENT_QUOTA, "seed": inputs.EXPERIMENT_SEED,
                     "criterion_6": True,
                     "capture": {"every": EXPERIMENT_CAPTURE_EVERY,
                                 "offset": args.seed % EXPERIMENT_CAPTURE_EVERY,
                                 "seed": args.seed, "out": str(texts_path)}}
        round_modes = [["serial"], ["serial"]]
    else:
        inputs.write_model_corpus(corpus_dir)
        texts_path.write_text(json.dumps(inputs.long_texts(args.seed)), encoding="utf-8")
        pipe_spec = {"quota": inputs.MODEL_QUOTA, "seed": inputs.MODEL_SEED, "criterion_6": False,
                     "capture": None}
        round_modes = [["serial"], ["serial", "pooled"]]
    if args.trace:
        # The untraced first repetition gives the tracing overhead; the pooled
        # one checks that the process pool writes the serial bytes.
        round_modes = [["serial", "traced", "pooled"]]
    pipe_spec.update(corpus=str(corpus_dir), default_workers=default_workers,
                     spans_out=str(HERE / ".work" / f"spans-{args.workload}-{args.seed}.json"))
    predict_spec = {"texts": str(texts_path), "trace": args.trace,
                    "default_workers": default_workers}

    # Untraced runs alternate two rounds: a pipeline process with one serial
    # repetition, then a part of the latency loop.  The two serial times, and
    # a text's passes, then lie up to half a run apart, so a slow spell of the
    # machine is less likely to reach all of them; each time is the faster of
    # the two.  A traced run has one round, whose loop makes a single pass.
    pipes, predicts = [], []
    for r, modes in enumerate(round_modes):
        round_work = work / f"round{r}"
        round_work.mkdir()
        pipes.append(run_child(
            "pipeline",
            dict(pipe_spec, modes=modes, work=str(round_work),
                 capture=pipe_spec["capture"] if r == 0 else None),
            deadline,
        ))
        if pipes[0]["model"] is None:
            break
        predicts.append(run_child(
            "predict",
            dict(predict_spec, model=pipes[0]["model"], work=str(round_work),
                 seconds=args.seconds / len(round_modes), min_passes=ROUND_PASSES[r]),
            deadline,
        ))

    all_reps = [r for pipe in pipes for r in pipe["reps"]]
    reps = [r for r in all_reps if "error" not in r]
    for r in reps[1:]:
        if r["sha256"] != reps[0]["sha256"]:
            r["failures"].append("artifacts differ from the first repetition")
    serial = [r for r in reps if r["mode"] == "serial"]
    failures = [f for r in all_reps for f in r.get("failures", [r.get("error")]) if f]
    if not serial:
        raise ChildFailed("the serial pipeline repetition failed: " + "; ".join(failures))
    predict = predicts[0]
    errors = [e for p in predicts for e in p["errors"]]
    changed = sum(a != b for p in predicts[1:] for a, b in zip(p["answers"], predict["answers"]))
    if changed:
        errors.append(f"{changed} answers changed between latency rounds")
    latency = latency_stats(predicts)
    setup_s = setup_seconds(None if args.workload == "experiment" else pipes[0]["model"])

    attempted = len(all_reps) + sum(p["calls"] for p in predicts)
    failed = (sum(1 for r in all_reps if "error" in r or r["failures"])
              + sum(p["failed"] for p in predicts) + changed)
    if args.workload == "experiment":
        overall = serial[0]["overall"]
        accuracy_nn = overall["nn"]
        baseline_acc = {m: overall[m] for m in predict["accuracy"]}
        rss = max(pipe["peak_rss_mb"] for pipe in pipes)
    else:
        accuracy_nn = predict["accuracy_nn"]
        baseline_acc = predict["accuracy"]
        rss = max(p["peak_rss_mb"] for p in predicts)

    def fastest_rep(key: str) -> float:
        return min(r[key] for r in serial)

    e2e = {
        "setup_s": setup_s,
        "generate_s": fastest_rep("generate_s"),
        "train_s": fastest_rep("train_s"),
        "evaluate_s": fastest_rep("evaluate_s"),
        "experiment_s": fastest_rep("experiment_s"),
        "latency_p50_ms": latency["latency_p50_ms"],
        "latency_p99_ms": latency["latency_p99_ms"],
        "texts_per_s": latency["texts_per_s"],
        "accuracy_nn": accuracy_nn,
        "peak_rss_mb": rss,
        "success_rate": 1.0 - failed / attempted,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "inputs": predict["inputs"],
        "latency": {"samples": latency["samples"], "pass_s": [p["pass_s"] for p in predicts],
                    "median_of_passes_ms": latency["median_of_passes_ms"]},
        "sha256": [r["sha256"] for r in reps],
        "pipeline_s": [{k: r[k] for k in ("mode", "generate_s", "train_s", "evaluate_s")} for r in reps],
        "accuracy": dict(baseline_acc, nn=accuracy_nn),
        "failures": failures + errors,
        "attempted": attempted,
        "failed": failed,
    }
    if args.trace:
        pipe = pipes[0]
        layers = dict(pipe.get("layers", {}), **predict.get("layers", {}))
        layers.update({f"estimators.accuracy.{m}": v for m, v in baseline_acc.items()})
        layers["analysis.kasiski.pairs_per_text"] = predict["inputs"]["kasiski_pairs_per_text"]["mean"]
        report["top_level"] = pipe.get("top_level")
        report["spans"] = pipe.get("spans")
        report["layers"] = layers
    else:
        report["e2e"] = e2e
    return report, (report["layers"] if args.trace else e2e)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/vigkey/pipeline.py", "tests/english_corpus.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a vigkey checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT / "tests", HERE):
        sys.path.insert(0, str(path))

    # On SIGTERM, unwind through the finally blocks that stop the child and
    # remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, metrics = measure(args, work, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (HERE / ".work" / f"last-{args.workload}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    for key in ("machine", "inputs", "latency", "pipeline_s", "sha256", "accuracy", "failures"):
        print(f"{key}: {json.dumps(report[key])}")
    for m in declared:
        print(f"  {m['name']:48s} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
