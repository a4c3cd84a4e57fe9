"""The pool's chunk store: edits that shift chunk boundaries read exactly like
a pool built fresh, snapshots are copy-on-write, and the factors are held once."""
import gc
import tracemalloc

import numpy as np
import pytest

import loraroute.adapters as adapters_module
from loraroute import AdapterPool, SignalConfig, adapter_to_bytes, fuse_parameters, probe, select_topk
from loraroute.adapters import STACK_CHUNK
from loraroute.signals import SCORINGS

from conftest import chunked_adapters, make_adapter, make_pool

TOKENS = [5, 9, 2, 33, 7, 1]


def fresh_pool(config, adapters):
    pool = AdapterPool(config)
    for adapter in sorted(adapters, key=lambda a: a.id):
        pool.add(adapter)
    return pool


def sites(config):
    return [(j, site) for j in range(config.n_blocks) for site in ("Q", "V")]


def assert_reads_like(pool, want, backbone, config):
    """Probe outputs and scores at every target block under both scorings,
    every pool operator and merged operators at several k: all bitwise."""
    assert pool.ids() == want.ids()
    for target_block in range(config.n_blocks):
        for scoring in SCORINGS:
            signal = SignalConfig(target_block=target_block, token_policy="mean", scoring=scoring)
            got, ref = probe(backbone, pool, TOKENS, signal), probe(backbone, want, TOKENS, signal)
            assert got.adapter_ids == ref.adapter_ids
            assert np.array_equal(got.outputs, ref.outputs)
            assert np.array_equal(got.score_vector, ref.score_vector)
    for j, site in sites(config):
        assert np.array_equal(pool.operator(pool.snapshot(), j, site), want.operator(want.snapshot(), j, site))
    for k in (1, 3, STACK_CHUNK, 2 * STACK_CHUNK + 5):
        got = fuse_parameters(pool, select_topk(probe(backbone, pool, TOKENS), k))
        ref = fuse_parameters(want, select_topk(probe(backbone, want, TOKENS), k))
        assert sorted(got) == sorted(ref) == sites(config)
        assert all(np.array_equal(got[key], ref[key]) for key in ref)


def edits(config, originals):
    """Named edits that move chunk boundaries, applied in turn to the chunked pool."""
    low = [a.id for a in originals[STACK_CHUNK : 2 * STACK_CHUNK]]
    late = [make_adapter(config, f"d{i}", seed=900 + i, rank=(3, 4, 5, 2)[i], alpha=1.3) for i in range(4)]
    return [
        ("insert-first", lambda pool: pool.add(make_adapter(config, "b000", seed=800, rank=5, alpha=0.9))),
        ("remove-mid-chunk", lambda pool: pool.remove(originals[40].id)),
        # After the two edits above, the second chunk holds exactly these ids.
        ("empty-a-chunk", lambda pool: [pool.remove(i) for i in low]),
        ("re-add", lambda pool: [pool.add(a) for a in reversed(originals[STACK_CHUNK : 2 * STACK_CHUNK])]),
        ("append-last", lambda pool: [pool.add(a) for a in late[:3]]),
        ("remove-last", lambda pool: pool.remove(late[2].id)),
        # Another adapter in the columns the removed one used.
        ("append-after-remove-last", lambda pool: pool.add(late[3])),
    ], {a.id: a for a in [*originals, *late, make_adapter(config, "b000", seed=800, rank=5, alpha=0.9)]}


class TestEditsMatchAFreshPool:
    def test_every_edit_reads_like_a_fresh_pool(self, tiny_backbone, tiny_config):
        originals = chunked_adapters(tiny_config)
        pool = fresh_pool(tiny_config, originals)
        steps, by_id = edits(tiny_config, originals)
        for _, edit in steps:
            edit(pool)
            current = [by_id[i] for i in pool.ids()]
            assert_reads_like(pool, fresh_pool(tiny_config, current), tiny_backbone, tiny_config)
            for adapter in current:
                assert adapter_to_bytes(pool.get(adapter.id)) == adapter_to_bytes(adapter)

    def test_snapshots_before_each_edit_keep_their_values(self, tiny_backbone, tiny_config):
        originals = chunked_adapters(tiny_config)
        pool = fresh_pool(tiny_config, originals)
        steps, _ = edits(tiny_config, originals)
        taken = []
        for name, edit in steps:
            old = pool.snapshot()
            kept = [(a.id, a.alpha, {key: (f.a.copy(), f.b.copy()) for key, f in a.factors.items()}) for a in old[1]]
            operators = {key: pool.operator(old, *key).copy() for key in sites(tiny_config)}
            taken.append((name, old, kept, operators))
            edit(pool)
            probe(tiny_backbone, pool, TOKENS)  # the read that rebuilds what the edit queued
            for before, old, kept, operators in taken:
                assert [a.id for a in old[1]] == [i for i, _, _ in kept], (name, before)
                for adapter, (_, alpha, factors) in zip(old[1], kept):
                    assert adapter.alpha == alpha
                    for key, (a, b) in factors.items():
                        fac = adapter.factors[key]
                        assert np.array_equal(fac.a, a) and np.array_equal(fac.b, b), (name, before, adapter.id)
                        assert not fac.a.flags.writeable and not fac.b.flags.writeable
                for key, w in operators.items():
                    assert np.array_equal(pool.operator(old, *key), w), (name, before, key)


class TestOneCopy:
    def test_views_share_the_pool_slabs(self, tiny_config):
        pool = fresh_pool(tiny_config, chunked_adapters(tiny_config))
        pool.remove("c070")
        _, view = pool.snapshot()
        assert [len(chunk.ids) for chunk in view.chunks] == [STACK_CHUNK, STACK_CHUNK, 4]
        for i, adapter in enumerate(view):
            chunk = view.chunks[i // STACK_CHUNK]
            assert pool.get(adapter.id) is adapter
            for key, fac in adapter.factors.items():
                assert np.shares_memory(fac.a, chunk.a[key]) and np.shares_memory(fac.b, chunk.b[key])

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_pool_holds_its_factors_once(self, tiny_config, order):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            adapters = chunked_adapters(tiny_config)
            factor_bytes = sum(f.a.nbytes + f.b.nbytes for a in adapters for f in a.factors.values())
            if order == "shuffled":
                np.random.default_rng(3).shuffle(adapters)
            pool = AdapterPool(tiny_config)
            for adapter in adapters:
                pool.add(adapter)
            del adapters, adapter
            pool.snapshot()  # builds what the adds queued and trims spare columns
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(pool) == 2 * STACK_CHUNK + 5
        assert held <= 1.1 * factor_bytes

    def test_warm_probe_builds_no_slab_and_no_operator(self, monkeypatch, tiny_backbone, tiny_config):
        built = []

        def counting(name):
            original = getattr(adapters_module, name)

            def counted(*args, **kwargs):
                built.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(adapters_module, name, counted)

        counting("_assemble")
        counting("dense_operator")
        pool = fresh_pool(tiny_config, chunked_adapters(tiny_config))
        pool.remove("c001")
        for target_block in range(tiny_config.n_blocks):
            signal = SignalConfig(target_block=target_block)
            probe(tiny_backbone, pool, TOKENS, signal)
            built.clear()
            probe(tiny_backbone, pool, TOKENS, signal)
            assert built == []
        pool.add(make_adapter(tiny_config, "c001", seed=1))
        probe(tiny_backbone, pool, TOKENS)
        assert built.count("_assemble") == 3 and built.count("dense_operator") == 2


class TestRebuildInPlace:
    """A rebuild rewrites an old chunk's slabs only when nothing can read them."""

    @staticmethod
    def churned(config, victim, newcomer):
        """A read 20-adapter pool with ``victim`` removed and ``newcomer`` added last."""
        return lambda pool: (pool.remove(victim), pool.add(make_adapter(config, newcomer, seed=99)))

    @staticmethod
    def in_place(pool, edit):
        old = pool._chunks[0]
        edit(pool)
        new = pool.snapshot()[1].chunks[0]
        return all(np.shares_memory(new.a[key], old.a[key]) for key in old.a)

    def test_unread_chunk_is_rewritten_in_place_like_a_fresh_pool(self, tiny_backbone, tiny_config):
        pool = make_pool(tiny_config, 20)
        pool.snapshot()  # trims the spare columns the adds left
        assert self.in_place(pool, self.churned(tiny_config, "ad10", "zz"))
        by_id = {a.id: a for a in make_pool(tiny_config, 20).snapshot()[1]}
        by_id["zz"] = make_adapter(tiny_config, "zz", seed=99)
        assert_reads_like(pool, fresh_pool(tiny_config, [by_id[i] for i in pool.ids()]), tiny_backbone, tiny_config)

    @pytest.mark.parametrize("reader", ["snapshot", "get"])
    def test_chunk_a_reader_holds_is_copied(self, tiny_config, reader):
        pool = make_pool(tiny_config, 20)
        pool.snapshot()
        held = pool.snapshot() if reader == "snapshot" else pool.get("ad03")
        assert not self.in_place(pool, self.churned(tiny_config, "ad10", "zz"))
        del held
        assert self.in_place(pool, self.churned(tiny_config, "ad11", "zzz"))

    def test_run_that_would_move_right_is_copied(self, tiny_backbone, tiny_config):
        # An insert before a remove in one chunk shifts the adapters between
        # them right; rewriting in place would overwrite them before they move.
        pool = make_pool(tiny_config, 20)
        pool.snapshot()
        edit = lambda pool: (pool.add(make_adapter(tiny_config, "ad05x", seed=98)), pool.remove("ad15"))
        assert not self.in_place(pool, edit)
        by_id = {a.id: a for a in make_pool(tiny_config, 20).snapshot()[1]}
        by_id["ad05x"] = make_adapter(tiny_config, "ad05x", seed=98)
        assert_reads_like(pool, fresh_pool(tiny_config, [by_id[i] for i in pool.ids()]), tiny_backbone, tiny_config)
