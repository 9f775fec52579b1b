"""objcap benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of an objcap checkout; the program is imported from
``src/``. Inputs are generated from ``--seed``. With ``--trace 0`` the run
repeats the workload's journey (set-up included) for ``--seconds`` and
reports the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` it runs
one untraced and one traced round, and reports the per-layer metrics of the
traced pass (input generation, one round with one set-up, and the checkpoint
round trip), together with the tracing overhead; the spans go to .perfbench/spans-<workload>-<seed>.npz.

Every run checks the program's outputs and counts operations attempted and
failed. After the timed rounds an untimed check training (``check_epochs``)
gives ``final_train_loss`` and the held-out BLEU that are compared with
reference.json. The last line of standard output is the JSON result; the line
before it is the environment record. ``--smoke`` runs every workload at a tiny size,
traced and untraced, and checks that each metric of BENCHMARK.json is emitted
with its unit.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
LOSS_RTOL = 1e-9  # relative, against the reference final training loss
BLEU_ATOL = 1e-9  # absolute, against the reference held-out BLEU


def _no_span(name):
    return contextlib.nullcontext()


def _determinism_checks(samples, ledger) -> None:
    """Every round must reproduce the first bit for bit."""
    for what, values in (
        ("final training loss", [repr(x) for x in samples.losses]),
        ("held-out BLEU", [repr(x) for x in samples.heldout_bleus]),
        ("evaluation report", samples.reports),
        ("greedy captions", samples.greedy_out),
    ):
        ledger.check(all(v == values[0] for v in values), f"{what} differs between rounds")


def _reference_check(w, state, ledger, reference) -> tuple[float, float]:
    """Run the workload's untimed check training; its final loss and held-out
    BLEU must match the values recorded for this workload and seed, when there
    are any. Returns them."""
    import workloads as wl

    history = ledger.op(wl.check_training, w, state)
    if history is None:
        return math.nan, math.nan
    losses = [e.train_loss for e in history.epochs]
    ledger.check(all(math.isfinite(x) for x in losses), f"non-finite check training loss: {losses}")
    loss, bleu = losses[-1], history.epochs[-1].val_bleu
    if reference is not None:
        ref_loss, ref_bleu = reference["final_train_loss"], reference["heldout_bleu"]
        ledger.check(
            abs(loss - ref_loss) <= LOSS_RTOL * abs(ref_loss),
            f"final_train_loss {loss!r} != reference {ref_loss!r}",
        )
        ledger.check(
            (ref_bleu is None and math.isnan(bleu)) or abs(bleu - ref_bleu) <= BLEU_ATOL,
            f"held-out BLEU {bleu!r} != reference {ref_bleu!r}",
        )
    return loss, bleu


def measure(w, seed: int, seconds: float, workdir: Path, reference):
    """The untraced run: returns (end-to-end metrics, ledger, sample counts)."""
    import workloads as wl

    inputs = wl.make_inputs(w, seed, workdir)
    samples, ledger = wl.Samples(), wl.Ledger()
    started = time.perf_counter()
    state = None
    while state is None or time.perf_counter() - started < seconds:
        state = None  # the round sets up its own
        state = wl.run_round(w, inputs, seed, samples, ledger, _no_span, wl.MIN_SETUP_S)
    _determinism_checks(samples, ledger)
    final_loss, heldout_bleu = _reference_check(w, state, ledger, reference)
    wl.checkpoint_round_trip(state, workdir, ledger)
    metrics = {
        "setup_s": statistics.median(samples.setup_s),
        "train_tokens_per_s": statistics.median(samples.train_tokens_per_s),
        "final_train_loss": final_loss,
        "eval_images_per_s": statistics.median(samples.eval_images_per_s),
        "greedy_caption_ms_p50": statistics.median(samples.greedy_ms),
        "greedy_caption_ms_p90": statistics.quantiles(samples.greedy_ms, n=10)[-1],
        "beam3_caption_ms_p50": statistics.median(samples.beam_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {
        "setups": len(samples.setup_s),
        "rounds": len(samples.losses),
        "greedy_captions": len(samples.greedy_ms),
        "beam_captions": len(samples.beam_ms),
        "evaluations": len(samples.eval_images_per_s),
        "heldout_bleu": heldout_bleu,
    }
    return metrics, ledger, counts


def measure_traced(w, seed: int, workdir: Path, reference, spans_path: Path):
    """The traced run: returns (per-layer metrics, ledger, sample counts)."""
    import workloads as wl
    from tracing import SpanTable, Tracer, per_layer_metrics

    tracer = Tracer()
    samples, ledger = wl.Samples(), wl.Ledger()
    with tracer.installed():
        inputs = wl.make_inputs(w, seed, workdir)
    # a fixed amount of work per phase, so traced counts do not depend on speed
    t0 = time.perf_counter()
    state = wl.run_round(w, inputs, seed, samples, ledger, _no_span, 0.0)
    untraced_s = time.perf_counter() - t0
    state = None
    with tracer.installed():
        t0 = time.perf_counter()
        state = wl.run_round(w, inputs, seed, samples, ledger, tracer.span, 0.0)
        traced_s = time.perf_counter() - t0
        ckpt_bytes = wl.checkpoint_round_trip(state, workdir, ledger)
    _determinism_checks(samples, ledger)
    _reference_check(w, state, ledger, reference)

    table = SpanTable(tracer)
    in_round_train = table.under("bench.train")
    metrics = per_layer_metrics(table, tracer.tape_nodes, in_round_train)
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    metrics["checkpoint.bytes"] = float(ckpt_bytes)
    metrics["data.records_bytes"] = float(inputs.records_path.stat().st_size)

    # coverage: traced counts must equal counts derived without the tracer
    in_forward = in_round_train & table.under("models.forward_teacher_forced")
    steps = table.count("layers.lstm_step", in_forward)
    ledger.check(
        steps == 2 * state.train_tokens,
        f"trace coverage: {steps} lstm_step calls in training, expected 2 x {state.train_tokens} tokens",
    )
    max_len = state.model.config.max_caption_len
    expected = max_len * len(samples.greedy_out[-1])
    greedy_steps = table.count("models.decode_step", table.under("bench.greedy") & table.under("models.decode_greedy"))
    ledger.check(
        greedy_steps == expected,
        f"trace coverage: {greedy_steps} decode_step calls in greedy captions, expected {expected}",
    )
    taped, nodes = int(table.taped.sum()), sum(n for _, n in tracer.tape_nodes)
    ledger.check(
        nodes == taped, f"trace coverage: tapes held {nodes} nodes, traced tape ops {taped}"
    )
    tracer.write(spans_path)
    counts = {
        "traced_spans": len(table.name),
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "optimizer_steps": int(table.get("training.Adam.step", "calls")),
    }
    return metrics, ledger, counts


def _select(spec_metrics: list[dict], computed: dict) -> dict:
    """Exactly the metrics BENCHMARK.json names, each with its unit."""
    names = [m["name"] for m in spec_metrics]
    missing = sorted(set(names) - computed.keys())
    extra = sorted(computed.keys() - set(names))
    if missing or extra:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: missing {missing}, unlisted {extra}")
    return {m["name"]: {"value": float(computed[m["name"]]), "unit": m["unit"]} for m in spec_metrics}


def run_one(spec: dict, w, seed: int, seconds: float, trace: bool, reference) -> dict:
    from environment import record

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}-{w.name}"
    workdir.mkdir()
    try:
        if trace:
            spans_path = OUT_DIR / f"spans-{w.name}-{seed}.npz"
            computed, ledger, counts = measure_traced(w, seed, workdir, reference, spans_path)
            metrics = _select(spec["per_layer"], computed)
        else:
            computed, ledger, counts = measure(w, seed, seconds, workdir, reference)
            metrics = _select(spec["end_to_end"], computed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print("samples: " + json.dumps(counts))
    for message in ledger.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"environment": record(ROOT, w.name, seed)}))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def smoke(spec: dict) -> int:
    import workloads as wl

    bad = 0
    for w in wl.WORKLOADS.values():
        for trace in (False, True):
            started = time.perf_counter()
            # run_one emits exactly the metrics BENCHMARK.json names, with their units
            result = run_one(spec, wl.smoke(w), seed=0, seconds=0, trace=trace, reference=None)
            got = result["metrics"]
            ok = result["correct"] and all(math.isfinite(m["value"]) for m in got.values())
            bad += not ok
            print(f"smoke {w.name} trace={int(trace)}: {'ok' if ok else 'FAIL'} "
                  f"({len(got)} metrics, {time.perf_counter() - started:.1f} s)")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(wl.WORKLOADS) or any(
        w["why"] != wl.WORKLOADS[w["name"]].why for w in spec["workloads"]
    ):
        print("smoke: BENCHMARK.json workloads disagree with perfbench/workloads.py")
        bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "objcap" / "__init__.py").is_file():
        print(f"perfbench: no objcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from environment import pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(spec)

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = references.get(args.workload, {}).get(str(args.seed))
    result = run_one(spec, wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
