#!/usr/bin/env python3
"""Usage: python3 tools/bench_guard.py REPORT.json [REPORT.json ...]
       python3 tools/bench_guard.py --self-test REPORT.json [REPORT.json ...]

Checks bench_*_report outputs against the contracts CI holds them to. Each
file must load as JSON and name the tree it measured in provenance.git_sha,
and its "schema" picks its checks; an unknown or retired schema fails.
Exits 1 when any file fails.

--self-test proves the checks still fire: each file must pass, and then
every mutation listed for its schema in MUTATIONS, applied to a copy, must
be rejected. Exits 1 when a file fails or a mutation is accepted.
"""
import contextlib
import copy
import io
import json
import sys


def guard_serve(d):
    # Guard: with the batched one-GEMM-per-conv lowering, the best
    # micro-batching policy must not regress below sequential
    # throughput on the MobileNetV2-flat headline graph (0.95 leaves
    # a small noise margin for the short --quick windows on shared
    # runners; the real margin is ~1.2-1.3x on the tiny-serving graph,
    # down from ~1.7x once batch-1 plans stopped packing weights per
    # call).
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
    # Memory contract on every row: each plan's float arena covers its
    # peak-live lower bound, live-range placement keeps it within 2% of
    # that bound (it reaches it exactly on the shipped graphs), and the
    # fast plan's reuse beats a no-reuse executor.
    rows = d['results']
    assert rows, 'no result rows'
    for r in rows:
        name = f"{r['graph']} b{r['batch']} t{r['threads']}"
        for plan in ('', 'int8_'):
            live, arena = r[plan + 'peak_live_bytes'], r[plan + 'arena_bytes']
            assert live <= arena <= 1.02 * live, (
                f'{name}: {plan}arena {arena} B is not within 2% above peak live {live} B')
        assert r['arena_bytes'] < r['no_reuse_bytes'], (
            f"{name}: arena {r['arena_bytes']} B does not beat no-reuse {r['no_reuse_bytes']} B")
    print(f'infer memory: fast and int8 arenas within 2% of peak live on {len(rows)} rows')
    # Output contract on every graph: a row that records a check must pass
    # it (the int8 output memcmp-equal to the QModel oracle; the fast plan
    # exactly equal to the reference interpreter, which the synthetic
    # graphs' power-of-two scales make exact), and each graph records both
    # on at least one row (its first batch).
    checked = set()
    for r in rows:
        name = f"{r['graph']} b{r['batch']} t{r['threads']}"
        if 'exact_vs_qmodel' in r:
            assert r['exact_vs_qmodel'], f'{name}: int8 backend diverged from QModel oracle'
        if 'max_abs_diff' in r:
            assert r['max_abs_diff'] == 0, (
                f"{name}: fast plan differs from the reference by {r['max_abs_diff']}")
        if 'exact_vs_qmodel' in r and 'max_abs_diff' in r:
            checked.add(r['graph'])
    unchecked = sorted({r['graph'] for r in rows} - checked)
    assert not unchecked, f'no output checks recorded on {unchecked}'
    print(f'infer exactness: int8 == QModel and fast == reference on {sorted(checked)}')
    # Guards on the MobileNetV2-flat b1 headline: the int8 backend
    # must stay memcmp-exact vs the QModel oracle, and must not fall
    # behind the float fast path. Both plans are timed in alternating
    # windows of the same length and count, so both sides see the same
    # host state. Measured single-core on a 4-core AVX-512 VNNI Xeon,
    # with int8 conv weights packed once, float convs in one pass (6x16
    # SGEMM tiles with a fused epilogue), both backends on the trunc-form
    # quantizer and small depthwise planes eight to a vector on both:
    # 1.74x on mbv2_w100_r160 and 1.30x on mcunet_r176 in the committed
    # full run, and a median 1.41x (quartiles 1.37-1.44x, range
    # 1.27-1.56x) over 20 runs of this --quick headline (mbv2_w035_r96),
    # each side the best of eight alternating 25 ms windows. With two
    # 50 ms windows per side, one slow spell could cover all of one
    # side's: 20 runs read 0.90-1.79x.
    h = d['mbv2_b1_t1']
    assert h['exact_vs_qmodel'], 'int8 backend diverged from QModel oracle'
    s = h['speedup_int8_vs_fast']
    assert s >= 1.0, f'int8 backend slower than float fast path: {s:.3f}x'
    print(f"int8 headline: {s:.3f}x vs fast, exact, kernel {d['provenance']['kernels']['gemm_s8']}")


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


def guard_substrate(d):
    # The depthwise routing table, which the depthwise crossovers are read
    # off: each geometry names the route both depthwise entries take on it
    # (float and int8), and each graph its rows name has a totals row.
    dw = d['depthwise_routing']
    rows = dw['rows']
    assert rows, 'no depthwise routing rows'
    for r in rows:
        name = f"{r['graph']} {r['h']}x{r['w']} k{r['k']} s{r['s']}"
        assert r.get('route'), f'{name}: no float route'
        assert r.get('s8_route'), f'{name}: no int8 route'
    totals = {t['graph'] for t in dw['totals']}
    missing = sorted({r['graph'] for r in rows} - totals)
    assert not missing, f'no depthwise totals row for {missing}'
    print(f'depthwise routing: {len(rows)} geometries routed, totals for {sorted(totals)}')
    # The training layer table: the pass kinds' shares of the step's layer
    # time add up to the whole step (each share is written to 4 digits).
    shares = sum(r['share'] for r in d['train_step']['rows'])
    assert abs(shares - 1.0) <= 1e-3, f'train_step shares sum to {shares:.4f}, not 1'
    print(f"train step: {len(d['train_step']['rows'])} pass kinds, shares sum to {shares:.4f}")
    # The GEMM rows: every timed shape ran.
    gemms = [r for r in d['results'] if r['name'].startswith('sgemm_')]
    assert gemms, 'no sgemm rows'
    for r in gemms:
        assert r['gflops'] > 0, f"{r['name']}: gflops {r['gflops']}"
    print(f'sgemm: {len(gemms)} rows, all with gflops > 0')


GUARDS = {
    'nb-bench-substrate-v2': guard_substrate,
    'nb-bench-infer-v2': guard_infer,
    'nb-bench-serve-v3': guard_serve,
    'nb-bench-data-v1': guard_data,
}


def check(d):
    assert d.get('schema') in GUARDS, f"unknown schema {d.get('schema')!r}"
    assert d.get('provenance', {}).get('git_sha'), 'no provenance.git_sha'
    GUARDS[d['schema']](d)


def last_row(d):
    return d['results'][-1]


def checked_row(d, graph_prefix):
    """The first results row of a graph that records its output checks."""
    return next(r for r in d['results']
                if r['graph'].startswith(graph_prefix) and 'exact_vs_qmodel' in r)


def drop_output_checks(row):
    del row['exact_vs_qmodel']
    del row['max_abs_diff']


# For each schema, named mutations that break one contract apiece.
MUTATIONS = {
    'nb-bench-substrate-v2': {
        'depthwise row without a float route':
            lambda d: d['depthwise_routing']['rows'][0].pop('route'),
        'depthwise row with an empty int8 route':
            lambda d: d['depthwise_routing']['rows'][-1].update(s8_route=''),
        'last depthwise totals row removed':
            lambda d: d['depthwise_routing']['totals'].pop(),
        'train_step share 0.01 too high':
            lambda d: d['train_step']['rows'][0].update(
                share=d['train_step']['rows'][0]['share'] + 0.01),
        'sgemm row gflops 0': lambda d: d['results'][-1].update(gflops=0),
    },
    'nb-bench-infer-v2': {
        'headline exact_vs_qmodel false':
            lambda d: d['mbv2_b1_t1'].update(exact_vs_qmodel=False),
        'headline speedup_int8_vs_fast 0.5':
            lambda d: d['mbv2_b1_t1'].update(speedup_int8_vs_fast=0.5),
        'fast arena 5% above peak live':
            lambda d: last_row(d).update(arena_bytes=int(1.05 * last_row(d)['peak_live_bytes'])),
        'arena equal to no-reuse':
            lambda d: last_row(d).update(no_reuse_bytes=last_row(d)['arena_bytes']),
        'int8 float arena 5% above peak live':
            lambda d: last_row(d).update(int8_arena_bytes=int(1.05 * last_row(d)['int8_peak_live_bytes'])),
        'mcunet row exact_vs_qmodel false':
            lambda d: checked_row(d, 'mcunet').update(exact_vs_qmodel=False),
        'mbv2 row max_abs_diff 0.5':
            lambda d: checked_row(d, 'mbv2').update(max_abs_diff=0.5),
        'mcunet output checks removed':
            lambda d: drop_output_checks(checked_row(d, 'mcunet')),
    },
    'nb-bench-serve-v3': {
        'batching headline 0.9':
            lambda d: d['mbv2_batching'].update(speedup_microbatch_vs_sequential=0.9),
        'overload unresolved 1': lambda d: d['overload'].update(unresolved=1),
        'overload rejected_queue_full 0':
            lambda d: d['overload'].update(rejected_queue_full=0),
        'overload p99 above its SLO':
            lambda d: d['overload'].update(p99_accepted_ms=1.5 * d['overload']['slo_ms']),
        'mixed-geometry ratio 1.0':
            lambda d: d['mixed_geometry'].update(goodput_ratio_bucketed_vs_unbucketed=1.0),
        'workers-sweep row unresolved': lambda d: d['workers_sweep'][0].update(unresolved=1),
    },
    'nb-bench-data-v1': {
        'determinism.plain false': lambda d: d['determinism'].update(plain=False),
        'end_to_end.acc_bitwise_equal false':
            lambda d: d['end_to_end'].update(acc_bitwise_equal=False),
        'io headline 1.1':
            lambda d: d['augmented_io_w4'].update(speedup_pipeline_vs_sync=1.1),
    },
}
COMMON_MUTATIONS = {
    'provenance removed': lambda d: d.pop('provenance'),
    'retired schema nb-bench-int8-v1': lambda d: d.update(schema='nb-bench-int8-v1'),
    'retired schema nb-bench-substrate-v1':
        lambda d: d.update(schema='nb-bench-substrate-v1'),
}


def self_test(path, d):
    check(d)
    mutations = {**MUTATIONS.get(d['schema'], {}), **COMMON_MUTATIONS}
    for name, mutate in mutations.items():
        broken = copy.deepcopy(d)
        mutate(broken)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                check(broken)
        except Exception as e:  # the guard rejected it, as it must
            print(f'  rejects {name}: {type(e).__name__}: {e}')
            continue
        raise AssertionError(f'guard accepted mutation: {name}')
    print(f'self-test {path}: all {len(mutations)} mutations rejected')


def main(args):
    if not __debug__:
        sys.exit('bench_guard.py: its checks are assert statements; run it without -O')
    mode = args[0] if args else None
    paths = args[1:] if mode == '--self-test' else args
    if not paths:
        sys.exit(__doc__)
    failed = 0
    for path in paths:
        try:
            with open(path) as f:
                d = json.load(f)
            if mode == '--self-test':
                self_test(path, d)
            else:
                check(d)
            print(f'ok {path}')
        except Exception as e:  # a missing key fails like a broken contract
            print(f'FAIL {path}: {type(e).__name__}: {e}')
            failed += 1
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
