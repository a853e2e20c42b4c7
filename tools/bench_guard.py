#!/usr/bin/env python3
"""Usage: python3 tools/bench_guard.py REPORT.json [REPORT.json ...]

Checks bench_*_report outputs against the contracts CI holds them to. Each
file must load as JSON, and its "schema" picks its checks (substrate:
well-formedness only); an unknown schema fails. Exits 1 when any file
fails.
"""
import json
import sys


def guard_serve(d):
    # Guard: with the batched one-GEMM-per-conv lowering, the best
    # micro-batching policy must not regress below sequential
    # throughput on the MobileNetV2-flat headline graph (0.95 leaves
    # a small noise margin for the short --quick windows on shared
    # runners; the real margin is ~1.7x on the tiny-serving graph).
    s = d['mbv2_batching']['speedup_microbatch_vs_sequential']
    assert s >= 0.95, f'micro-batching regressed below sequential: {s:.3f}x'
    print(f'batching headline: {s:.3f}x on ' + d['mbv2_batching']['graph'])
    # Guards on the graceful-degradation contract (nb-bench-serve-v3).
    # Overload row (offered = 2x capacity, bounded queue, workers 2):
    # the engine must shed the excess with typed rejections, keep p99
    # of ACCEPTED work within the SLO (sized at 4x full-queue drain
    # time), resolve every future, and still deliver goodput.
    assert d['schema'] == 'nb-bench-serve-v3', d['schema']
    ol = d['overload']
    assert ol['workers'] > 1, f"overload must run multi-worker: {ol['workers']}"
    assert ol['unresolved'] == 0, f"{ol['unresolved']} futures left unresolved"
    assert ol['shed'] > 0 and ol['shed_rate'] > 0.0, 'overload did not shed'
    assert ol['rejected_queue_full'] > 0, 'bounded queue never rejected'
    assert ol['goodput_per_s'] > 0.0, 'no goodput under overload'
    assert ol['p99_accepted_ms'] <= ol['slo_ms'], (
        f"p99 of accepted {ol['p99_accepted_ms']:.1f} ms blew the "
        f"{ol['slo_ms']} ms SLO")
    print(f"overload: goodput {ol['goodput_per_s']:.1f}/s, "
          f"shed {100 * ol['shed_rate']:.1f}%, "
          f"p99(accepted) {ol['p99_accepted_ms']:.1f} ms <= {ol['slo_ms']} ms SLO")
    # Fixed-load workers sweep: at 60% of capacity nothing should be
    # left unresolved and the accepted tail stays inside the SLO.
    for row in d['workers_sweep']:
        w = row['workers']
        assert row['unresolved'] == 0, f'w{w}: unresolved futures'
        assert row['p99_accepted_ms'] <= row['slo_ms'], (
            f"w{w}: p99 {row['p99_accepted_ms']:.1f} ms > {row['slo_ms']} ms SLO")
    print('workers sweep: p99 within SLO at', [r['workers'] for r in d['workers_sweep']], 'workers')
    # Mixed-geometry contract: under the same seeded near-capacity
    # schedule over 16 close geometries, the bucketed engine must
    # actually coalesce (padded admissions, cross-geometry batches)
    # and deliver strictly more goodput than the unbucketed engine,
    # with every future resolved and the accepted tail inside the
    # SLO on both rows. The committed full run shows ~1.2x; strict
    # > 1.0 here tolerates --quick noise while still failing if
    # bucketing ever stops paying for itself.
    mg = d['mixed_geometry']
    ratio = mg['goodput_ratio_bucketed_vs_unbucketed']
    assert ratio > 1.0, f'bucketed goodput no longer beats unbucketed: {ratio:.3f}x'
    rows = {r['bucketed']: r for r in mg['rows']}
    assert set(rows) == {True, False}, 'need one bucketed and one unbucketed row'
    for bucketed, r in rows.items():
        name = 'bucketed' if bucketed else 'unbucketed'
        assert r['unresolved'] == 0, f'{name}: unresolved futures'
        assert r['p99_accepted_ms'] <= r['slo_ms'], (
            f"{name}: p99 {r['p99_accepted_ms']:.1f} ms > {r['slo_ms']} ms SLO")
    assert rows[True]['padded_accepted'] > 0, 'bucketed row never padded'
    assert rows[True]['mixed_geometry_batches'] > 0, 'bucketed row never coalesced geometries'
    assert rows[False]['padded_accepted'] == 0, 'unbucketed row must not pad'
    print(f"mixed geometry: bucketed {rows[True]['goodput_per_s']:.1f}/s vs "
          f"unbucketed {rows[False]['goodput_per_s']:.1f}/s ({ratio:.3f}x), "
          f"{rows[True]['mixed_geometry_batches']} mixed batches")


def guard_infer(d):
    # Memory contract on every row: the plan's float arena covers the
    # peak-live lower bound, live-range placement keeps it within 2% of
    # that bound (it reaches it exactly on the shipped graphs), and reuse
    # beats a no-reuse executor.
    rows = d['results']
    assert rows, 'no result rows'
    for r in rows:
        name = f"{r['graph']} b{r['batch']} t{r['threads']}"
        live, arena = r['peak_live_bytes'], r['arena_bytes']
        assert live <= arena <= 1.02 * live, (
            f'{name}: arena {arena} B is not within 2% above peak live {live} B')
        assert arena < r['no_reuse_bytes'], (
            f"{name}: arena {arena} B does not beat no-reuse {r['no_reuse_bytes']} B")
    print(f'infer memory: arena within 2% of peak live on {len(rows)} rows')


def guard_int8(d):
    # Guards on the MobileNetV2-flat b1 headline: the int8 backend
    # must stay memcmp-exact vs the QModel oracle, and must not fall
    # behind the float fast path. Measured single-core on a 4-core
    # AVX-512 VNNI Xeon with register-tiled int8 GEMM tiles that
    # requantize in their final store: 1.56x on mbv2_w100_r160 and
    # 1.69x on mcunet_r176 (BENCH_int8.json), and 1.11-1.59x over ten
    # consecutive runs of this --quick headline (mbv2_w035_r96), all
    # passing; before that change it read 1.05-1.14x, with one failing
    # run at 0.796x. The report alternates int8 and fast windows of the
    # same length and count, so both sides see the same host state; the
    # spread comes from the short 50 ms timing windows on a shared host.
    h = d['mbv2_b1_t1']
    assert h['exact_vs_qmodel'], 'int8 backend diverged from QModel oracle'
    s = h['speedup_int8_vs_fast']
    assert s >= 1.0, f'int8 backend slower than float fast path: {s:.3f}x'
    print(f"int8 headline: {s:.3f}x vs fast, exact, kernel {d['kernel']}")


def guard_data(d):
    # Guards on the pipeline's two contracts:
    #   * determinism — batches at 4 workers memcmp-equal to the
    #     synchronous loader (plain, augmented, augmented+mixed), and
    #     a real training epoch lands on the bit-identical accuracy;
    #   * latency hiding — on the blocking-decode workload the
    #     4-worker pipeline must beat the sync loader even on a
    #     single-core runner (sleeps overlap regardless of cores;
    #     the committed full run shows ~4x, 1.2 leaves noise room).
    assert d['schema'] == 'nb-bench-data-v1', d['schema']
    det = d['determinism']
    for k in ('plain', 'augmented', 'augmented_mixed'):
        assert det[k], f'pipeline lost bitwise determinism on {k}'
    e2e = d['end_to_end']
    assert e2e['acc_bitwise_equal'], (
        'train_classifier accuracy diverged between sync and pipeline')
    s = d['augmented_io_w4']['speedup_pipeline_vs_sync']
    assert s >= 1.2, f'pipeline stopped hiding decode latency: {s:.2f}x'
    print(f'data pipeline: determinism ok, io headline {s:.2f}x, '
          f"e2e {e2e['speedup']:.2f}x at w{e2e['workers']}")


GUARDS = {
    'nb-bench-substrate-v1': lambda d: None,
    'nb-bench-infer-v1': guard_infer,
    'nb-bench-serve-v3': guard_serve,
    'nb-bench-int8-v1': guard_int8,
    'nb-bench-data-v1': guard_data,
}


def main(paths):
    if not __debug__:
        sys.exit('bench_guard.py: its checks are assert statements; run it without -O')
    if not paths:
        sys.exit(__doc__)
    failed = 0
    for path in paths:
        try:
            with open(path) as f:
                d = json.load(f)
            assert d.get('schema') in GUARDS, f"unknown schema {d.get('schema')!r}"
            GUARDS[d['schema']](d)
            print(f'ok {path}')
        except Exception as e:  # a missing key fails like a broken contract
            print(f'FAIL {path}: {type(e).__name__}: {e}')
            failed += 1
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
