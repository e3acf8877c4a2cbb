#!/usr/bin/env python3
"""Bench-regression gate over the BENCH_*.json files CI produces.

Dispatches on content. Host-dependent assertions (throughput ratios that
need real cores or a quiet machine) are armed from the "host" metadata
bench::HostMetaJson() embeds in every file — a 1-thread container prints
an explicit SKIPPED line instead of silently passing, so a CI log always
shows whether the perf gates actually ran.

A file with a "qa" object (BENCH_qa.json, from bench_qa) is gated on:

  * min_oracle_agreement >= 0.999 — composing an answer through QaEngine
    must reproduce the direct InferenceSession::Predict oracle exactly on
    the teacher path (composition changes provenance, never labels);
  * min_surrogate_agreement >= 0.85 — the explanation-distilled surrogate
    must agree with the teacher's answers on both corpora, or the cheap
    tier is answering with different semantics;
  * escalation-rate sanity: every cascade point's rate lies in [0, 1] and
    rates are non-decreasing in the confidence threshold (a higher bar
    can only escalate more);
  * surrogate scoring performed exactly zero heap allocations per call
    after warm-up;
  * composed-justification coverage >= its constituent coverage —
    composition must not dilute evidence (deterministic, always armed);
  * surrogate per-table scoring >= 2x cheaper than teacher
    PredictProbabilities p50 — armed on hosts with >= 4 hardware threads
    (1-thread containers time both paths too noisily).

Its "distill" array (per-(corpus, task) distillation time: the whole
Distill, the teacher PredictBatch and ExplainBatch it runs, and the
features + training remainder) is printed, not gated.

A file with a "peak_speedup_vs_sequential" member (BENCH_serving.json,
from bench_online_simulation) is gated on batched serving beating the
sequential baseline by >= 1.5x at peak offered load, armed from the
embedded host metadata the same way.

A file with a "store" array (BENCH_store.json,
from bench_embedding_store) is gated on:

  * recall_at_10 >= the file's own recall_floor in every row — the
    segmented HNSW must stay an accurate index, not just a fast one;
  * roundtrip_identical is true everywhere: a persisted store reloaded
    from disk answered every probe bit-identically;
  * steady_state_allocations == 0 exactly: the warm serial search path
    must not touch the heap.

A file with a "plan_vs_tape" object (BENCH_inference.json) fails the
job (exit 1) if the InferenceSession serving path ("plan" in the JSON)
has fallen behind the tape oracle (ExplainTiModel's eval forward,
looped over each batch):

  * plan p50 must not exceed tape p50 by more than --max-ratio for any
    (method, batch_size) cell. Both paths are bound by the same shared
    GEMM kernels; the tolerance absorbs container timer noise while
    still catching a real regression (a broken fusion or a de-pooled
    allocation shows up as tens of percent, not two).
  * plan allocations/call must not exceed tape allocations/call in any
    cell — this is deterministic (allocation counts don't jitter), so it
    is checked strictly. The serving path exists to allocate less.
  * the raw encoder forward ("plan_executor": nn::TransformerEncoder::
    Serve on caller-owned buffers) must be allocation-free after
    warm-up: allocations_per_call == 0 and steady_state_arena_misses ==
    0, exactly. One stray allocation per Serve means a stage escaped the
    caller's buffers.

Stdlib only; CI calls it as
  python3 ci/check_bench.py <build_dir>/BENCH_inference.json
  python3 ci/check_bench.py <build_dir>/BENCH_store.json
"""

import argparse
import json
import sys


def fmt_us(v):
    return f"{v:9.1f}"


def host_threads(bench):
    """Hardware-thread count from the embedded host metadata (0 if absent)."""
    host = bench.get("host")
    if isinstance(host, dict) and isinstance(host.get("hardware_threads"), int):
        return host["hardware_threads"]
    # Older BENCH_serving.json files carried the count at top level only.
    if isinstance(bench.get("hardware_threads"), int):
        return bench["hardware_threads"]
    return 0


def check_qa(bench):
    """Gates the BENCH_qa.json 'qa' object; returns 0/1."""
    q = bench["qa"]
    failures = []

    for row in q.get("accuracy", []):
        print(f"qa {row['corpus']}/{row['task']}: "
              f"oracle {row['oracle_agreement']:.3f}, "
              f"teacher F1 {row['teacher_f1']:.3f}, "
              f"surrogate F1 {row['surrogate_f1']:.3f}, "
              f"agreement {row['surrogate_agreement']:.3f}")
    points = q.get("cascade", [])
    for point in points:
        print(f"cascade @{point['threshold']:.2f}: "
              f"p50 {point['p50_us']:.1f}us p99 {point['p99_us']:.1f}us, "
              f"escalation {point['escalation_rate']:.3f}")
    tiers = q.get("tiers", {})
    print(f"per-table scoring: surrogate p50 "
          f"{tiers.get('surrogate_score_p50_us', 0.0):.1f}us vs teacher p50 "
          f"{tiers.get('teacher_predict_p50_us', 0.0):.1f}us "
          f"({tiers.get('surrogate_speedup', 0.0):.1f}x)")
    for row in q.get("distill", []):
        print(f"distill {row['corpus']}/{row['task']}: "
              f"{row['total_ms']:.1f}ms over {row['train_samples']} samples "
              f"({row['explained']} explained): teacher predict "
              f"{row['teacher_predict_ms']:.1f}ms, explain "
              f"{row['teacher_explain_ms']:.1f}ms, features+train "
              f"{row['features_and_train_ms']:.1f}ms")
    coverage = q.get("coverage", {})
    print(f"coverage: constituent {coverage.get('constituent', 0.0):.3f}, "
          f"composed {coverage.get('composed', 0.0):.3f} over "
          f"{coverage.get('items', 0)} items; judge evidence coverage "
          f"{coverage.get('judge_evidence_coverage', 0.0):.3f}")

    if q.get("min_oracle_agreement", 0.0) < 0.999:
        failures.append(
            f"teacher-path answer agreement with the direct-prediction "
            f"oracle is {q.get('min_oracle_agreement', 0.0):.3f} (must be "
            f"exact: composition changes provenance, never labels)")
    if q.get("min_surrogate_agreement", 0.0) < 0.85:
        failures.append(
            f"surrogate-vs-teacher answer agreement "
            f"{q.get('min_surrogate_agreement', 0.0):.3f} below the 0.85 "
            f"floor — the cheap tier is answering with different semantics")
    if not points:
        failures.append("'cascade' array is empty")
    previous_rate = 0.0
    for point in points:
        rate = point.get("escalation_rate", -1.0)
        if not 0.0 <= rate <= 1.0:
            failures.append(
                f"cascade @{point.get('threshold')}: escalation rate {rate} "
                f"outside [0, 1]")
        elif rate + 1e-9 < previous_rate:
            failures.append(
                f"cascade @{point.get('threshold')}: escalation rate {rate} "
                f"decreased as the confidence threshold rose")
        else:
            previous_rate = rate
    scoring = q.get("surrogate_scoring", {})
    if scoring.get("allocations_per_call", 1) != 0:
        failures.append(
            f"surrogate scoring allocates "
            f"{scoring.get('allocations_per_call')}/call after warm-up "
            f"(must be exactly 0)")
    if coverage.get("composed", 0.0) + 1e-9 < coverage.get("constituent", 1.0):
        failures.append(
            f"composed-justification coverage "
            f"{coverage.get('composed', 0.0):.3f} regressed below its "
            f"constituent coverage {coverage.get('constituent', 1.0):.3f} — "
            f"composition diluted the evidence")

    threads = host_threads(bench)
    if threads >= 4:
        if tiers.get("surrogate_speedup", 0.0) < 2.0:
            failures.append(
                f"surrogate per-table scoring only "
                f"{tiers.get('surrogate_speedup', 0.0):.2f}x cheaper than "
                f"the teacher on a {threads}-thread host (needs >= 2x to "
                f"justify the tier)")
    else:
        print(f"SKIPPED: surrogate >= 2x scoring-cost gate (host has "
              f"{threads} hardware thread(s); needs >= 4 for stable timing)")

    if failures:
        print("\ncheck_bench: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ncheck_bench: OK — QA composition oracle-exact, surrogate "
          "agreement above floor, scoring allocation-free, coverage "
          "undiluted")
    return 0


def check_serving(bench):
    """Gates BENCH_serving.json's peak batched speedup; returns 0/1."""
    speedup = bench.get("peak_speedup_vs_sequential")
    if not isinstance(speedup, (int, float)):
        print("check_bench: BENCH_serving.json has no "
              "'peak_speedup_vs_sequential'", file=sys.stderr)
        return 1
    points = bench.get("load_points")
    if not isinstance(points, list) or not points:
        print("check_bench: 'load_points' array is empty", file=sys.stderr)
        return 1
    print(f"peak batched speedup vs sequential: {speedup:.2f}x over "
          f"{len(points)} load points")

    threads = host_threads(bench)
    if threads >= 4:
        if speedup < 1.5:
            print(f"\ncheck_bench: FAIL\n  - peak batched speedup "
                  f"{speedup:.2f}x below 1.5x on a {threads}-thread host",
                  file=sys.stderr)
            return 1
    else:
        print(f"SKIPPED: serving >= 1.5x gate (host has {threads} hardware "
              f"thread(s); batching needs >= 4 cores to fan out)")
    print("\ncheck_bench: OK — serving throughput gate "
          f"{'passed' if threads >= 4 else 'recorded (not armed)'}")
    return 0


def check_store(bench):
    """Gates the BENCH_store.json 'store' array; returns 0/1."""
    rows = bench.get("store")
    if not isinstance(rows, list) or not rows:
        print("check_bench: 'store' array is empty", file=sys.stderr)
        return 1
    floor = bench.get("recall_floor")
    if not isinstance(floor, (int, float)):
        print("check_bench: BENCH_store.json has no 'recall_floor'",
              file=sys.stderr)
        return 1

    failures = []
    print(f"{'corpus':>8s} {'shards':>6s} {'build ms':>9s} {'rebuild':>8s} "
          f"{'p50 us':>8s} {'p99 us':>8s} {'recall@10':>9s} {'allocs':>6s}")
    for row in rows:
        name = f"corpus={row['corpus']}/shards={row['shards']}"
        print(f"{row['corpus']:8d} {row['shards']:6d} "
              f"{row['build_ms']:9.1f} {row['reader_rebuild_ms']:8.1f} "
              f"{row['search_p50_us']:8.1f} {row['search_p99_us']:8.1f} "
              f"{row['recall_at_10']:9.3f} "
              f"{row['steady_state_allocations']:6d}")
        if row["recall_at_10"] < floor:
            failures.append(
                f"{name}: recall@10 {row['recall_at_10']:.3f} below the "
                f"floor {floor}")
        if row["roundtrip_identical"] is not True:
            failures.append(
                f"{name}: save->load roundtrip was not bit-identical")
        if row["steady_state_allocations"] != 0:
            failures.append(
                f"{name}: steady-state serial search performed "
                f"{row['steady_state_allocations']} allocations "
                f"(must be exactly 0)")

    if failures:
        print("\ncheck_bench: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ncheck_bench: OK — store recall, roundtrip identity, and "
          "zero-allocation steady state all hold")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "bench_json",
        help="path to a BENCH_*.json (inference, store, serving, qa); "
        "the gate set is picked from the file's content",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=1.10,
        help="max allowed plan_p50 / tape_p50 per cell (default %(default)s, "
        "a timer-noise guard; the paths share their GEMM kernels)",
    )
    args = parser.parse_args()

    try:
        with open(args.bench_json, "r", encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        print(f"check_bench: cannot read {args.bench_json}: {err}",
              file=sys.stderr)
        return 1

    if "qa" in bench:
        return check_qa(bench)

    if "peak_speedup_vs_sequential" in bench:
        return check_serving(bench)

    if "store" in bench:
        return check_store(bench)

    matrix = bench.get("plan_vs_tape")
    if not isinstance(matrix, dict):
        print("check_bench: BENCH_inference.json has no 'plan_vs_tape' "
              "object — was the benchmark built from this tree?",
              file=sys.stderr)
        return 1

    failures = []
    rows = []
    for method, cells in matrix.items():
        if method == "plan_executor":
            continue
        for batch, cell in sorted(cells.items()):
            plan, tape = cell["plan"], cell["tape"]
            ratio = plan["p50_us"] / tape["p50_us"]
            rows.append((method, batch, plan, tape, ratio))
            if ratio > args.max_ratio:
                failures.append(
                    f"{method}/{batch}: plan p50 {plan['p50_us']:.1f}us vs "
                    f"tape p50 {tape['p50_us']:.1f}us "
                    f"(ratio {ratio:.3f} > {args.max_ratio})")
            if plan["allocations_per_call"] > tape["allocations_per_call"]:
                failures.append(
                    f"{method}/{batch}: plan allocates "
                    f"{plan['allocations_per_call']:.1f}/call vs tape "
                    f"{tape['allocations_per_call']:.1f}/call — the plan "
                    f"path must not allocate more than the tape")

    if not rows:
        print("check_bench: 'plan_vs_tape' has no (method, batch) cells",
              file=sys.stderr)
        return 1

    print(f"{'method':24s} {'batch':8s} {'plan p50':>9s} {'tape p50':>9s} "
          f"{'ratio':>6s} {'plan allocs':>11s} {'tape allocs':>12s}")
    for method, batch, plan, tape, ratio in rows:
        print(f"{method:24s} {batch:8s} {fmt_us(plan['p50_us'])} "
              f"{fmt_us(tape['p50_us'])} {ratio:6.3f} "
              f"{plan['allocations_per_call']:11.1f} "
              f"{tape['allocations_per_call']:12.1f}")

    executor = matrix.get("plan_executor")
    if not isinstance(executor, dict):
        failures.append("'plan_vs_tape.plan_executor' section missing")
    else:
        print(f"\nencoder Serve: p50 {executor['p50_us']:.1f}us, "
              f"p99 {executor['p99_us']:.1f}us, "
              f"{executor['allocations_per_call']:.2f} allocations/call, "
              f"{executor['steady_state_arena_misses']} arena misses")
        if executor["allocations_per_call"] != 0:
            failures.append(
                f"encoder Serve allocates "
                f"{executor['allocations_per_call']:.2f}/call after warm-up "
                f"(must be exactly 0)")
        if executor["steady_state_arena_misses"] != 0:
            failures.append(
                f"encoder Serve missed the workspace arena "
                f"{executor['steady_state_arena_misses']} times after "
                f"warm-up (must be exactly 0)")

    if failures:
        print("\ncheck_bench: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ncheck_bench: OK — plan path within tolerance everywhere, "
          "executor allocation-free")
    return 0


if __name__ == "__main__":
    sys.exit(main())
