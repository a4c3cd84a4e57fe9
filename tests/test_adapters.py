import struct
import threading

import numpy as np
import pytest

from loraroute import (
    AdapterPool,
    DuplicateAdapterError,
    FormatError,
    LoraAdapter,
    LoraFactors,
    ModelConfig,
    ShapeMismatchError,
    UnknownAdapterError,
    ValidationError,
    adapter_from_bytes,
    adapter_to_bytes,
    delta_apply,
    load_adapter,
    load_manifest,
    save_adapter,
    write_manifest,
)
from loraroute.adapters import ADAPTER_MAGIC, dense_operator

from conftest import byte_mutations, make_adapter, make_pool


def lgad_bytes(ident=b"x", d_model=4, n_blocks=1, rank=1, alpha=1.0, fill=1.0):
    """Hand-built LGAD bytes whose payload size follows the header fields."""
    head = ADAPTER_MAGIC + struct.pack("<BH", 1, len(ident)) + ident
    head += struct.pack("<IIIBd", d_model, n_blocks, rank, 0, alpha)
    return head + np.full(4 * n_blocks * d_model * rank, fill).tobytes()


def rank1_adapter(alpha=1.0):
    """Two-dim, rank-1, single-block adapter small enough to check by hand."""
    a = np.array([[1.0], [0.0]])
    b = np.array([[1.0, 2.0]])
    factors = {(0, s): LoraFactors(a, b) for s in ("Q", "V")}
    return LoraAdapter(id="hand", alpha=alpha, factors=factors)


class TestDeltaApply:
    def test_rank_one_hand_case(self):
        # B @ h = 1*3 + 2*2 = 7, A lifts it onto the first axis: (7, 0).
        ad = rank1_adapter()
        out = delta_apply(ad, 0, "Q", np.array([3.0, 2.0]))
        assert np.array_equal(out, np.array([7.0, 0.0]))

    def test_alpha_scales_linearly(self):
        out = delta_apply(rank1_adapter(alpha=2.5), 0, "Q", np.array([3.0, 2.0]))
        assert np.array_equal(out, np.array([17.5, 0.0]))

    def test_matches_dense_materialization(self, tiny_config):
        # Oracle: alpha * (A @ B) materialized and applied as a plain matvec.
        rng = np.random.default_rng(9)
        for seed in range(10):
            ad = make_adapter(tiny_config, f"x{seed}", seed=seed, rank=3, alpha=1.7)
            h = rng.normal(size=tiny_config.d_model)
            for key, fac in ad.factors.items():
                dense = ad.alpha * (fac.a @ fac.b)
                expect = dense @ h
                got = delta_apply(ad, key[0], key[1], h)
                np.testing.assert_allclose(got, expect, rtol=0, atol=1e-10)

    def test_linear_in_h(self, tiny_config):
        ad = make_adapter(tiny_config, "lin", seed=3)
        rng = np.random.default_rng(4)
        h1 = rng.normal(size=tiny_config.d_model)
        h2 = rng.normal(size=tiny_config.d_model)
        lhs = delta_apply(ad, 1, "V", h1 + h2)
        rhs = delta_apply(ad, 1, "V", h1) + delta_apply(ad, 1, "V", h2)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_zero_b_factor_gives_zero_delta(self, tiny_config):
        factors = {}
        rng = np.random.default_rng(0)
        for j in range(tiny_config.n_blocks):
            for s in ("Q", "V"):
                factors[(j, s)] = LoraFactors(
                    rng.normal(size=(tiny_config.d_model, 2)),
                    np.zeros((2, tiny_config.d_model)),
                )
        ad = LoraAdapter(id="zb", alpha=1.0, factors=factors)
        out = delta_apply(ad, 0, "Q", rng.normal(size=tiny_config.d_model))
        assert np.array_equal(out, np.zeros(tiny_config.d_model))

    def test_row_batch_matches_per_row(self, tiny_config):
        ad = make_adapter(tiny_config, "rows", seed=5)
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(7, tiny_config.d_model))
        batched = delta_apply(ad, 0, "Q", rows)
        for i in range(rows.shape[0]):
            np.testing.assert_allclose(
                batched[i], delta_apply(ad, 0, "Q", rows[i]), rtol=0, atol=1e-12
            )

    def test_alpha_override(self, tiny_config):
        ad = make_adapter(tiny_config, "ov", seed=1, alpha=2.0)
        h = np.random.default_rng(2).normal(size=tiny_config.d_model)
        doubled = delta_apply(ad, 0, "Q", h, alpha_override=4.0)
        base = delta_apply(ad, 0, "Q", h)
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12, atol=0)

    def test_wrong_h_width_rejected(self, tiny_config):
        ad = make_adapter(tiny_config, "bad", seed=1)
        with pytest.raises(ShapeMismatchError):
            delta_apply(ad, 0, "Q", np.ones(tiny_config.d_model + 1))

    def test_unknown_block_rejected(self, tiny_config):
        ad = make_adapter(tiny_config, "blk", seed=1)
        with pytest.raises(ValidationError):
            delta_apply(ad, 99, "Q", np.ones(tiny_config.d_model))


class TestAdapterValidation:
    def test_missing_site_rejected(self):
        factors = {(0, "Q"): LoraFactors(np.ones((4, 2)), np.ones((2, 4)))}
        with pytest.raises(ValidationError):
            LoraAdapter(id="partial", alpha=1.0, factors=factors)

    def test_inconsistent_rank_rejected(self):
        factors = {
            (0, "Q"): LoraFactors(np.ones((4, 2)), np.ones((2, 4))),
            (0, "V"): LoraFactors(np.ones((4, 3)), np.ones((3, 4))),
        }
        with pytest.raises(ShapeMismatchError):
            LoraAdapter(id="mixed", alpha=1.0, factors=factors)

    def test_alpha_must_be_positive(self):
        factors = {(0, s): LoraFactors(np.ones((4, 2)), np.ones((2, 4))) for s in ("Q", "V")}
        with pytest.raises(ValidationError):
            LoraAdapter(id="neg", alpha=-1.0, factors=factors)

    def test_id_must_not_contain_whitespace(self):
        factors = {(0, s): LoraFactors(np.ones((4, 2)), np.ones((2, 4))) for s in ("Q", "V")}
        with pytest.raises(ValidationError):
            LoraAdapter(id="has space", alpha=1.0, factors=factors)

    def test_factors_frozen_after_init(self, tiny_config):
        ad = make_adapter(tiny_config, "frz", seed=0)
        with pytest.raises(ValueError):
            ad.factors[(0, "Q")].a[0, 0] = 5.0


class TestPool:
    def test_add_bumps_revision(self, tiny_config):
        pool = AdapterPool(tiny_config)
        r0 = pool.revision
        pool.add(make_adapter(tiny_config, "a", seed=0))
        pool.add(make_adapter(tiny_config, "b", seed=1))
        assert pool.revision == r0 + 2
        assert len(pool) == 2

    def test_remove_bumps_revision(self, tiny_config):
        pool = make_pool(tiny_config, 3)
        r = pool.revision
        pool.remove("ad01")
        assert pool.revision == r + 1
        assert "ad01" not in pool

    def test_duplicate_id_rejected(self, tiny_config):
        pool = AdapterPool(tiny_config)
        pool.add(make_adapter(tiny_config, "dup", seed=0))
        with pytest.raises(DuplicateAdapterError):
            pool.add(make_adapter(tiny_config, "dup", seed=1))

    def test_remove_unknown_rejected(self, tiny_config):
        pool = AdapterPool(tiny_config)
        with pytest.raises(UnknownAdapterError):
            pool.remove("ghost")

    def test_config_mismatch_rejected(self, tiny_config):
        other = ModelConfig(d_model=16, n_blocks=2, n_heads=2, d_ff=32, vocab_size=64, max_seq_len=32)
        pool = AdapterPool(tiny_config)
        with pytest.raises(ShapeMismatchError):
            pool.add(make_adapter(other, "small", seed=0))

    def test_snapshot_sorted_and_stable(self, tiny_config):
        pool = AdapterPool(tiny_config)
        for name in ("zz", "aa", "mm"):
            pool.add(make_adapter(tiny_config, name, seed=0))
        rev, adapters = pool.snapshot()
        assert [a.id for a in adapters] == ["aa", "mm", "zz"]
        pool.add(make_adapter(tiny_config, "bb", seed=1))
        # The earlier snapshot is unaffected by later mutation.
        assert [a.id for a in adapters] == ["aa", "mm", "zz"]
        assert pool.revision == rev + 1

    def test_concurrent_adds(self, tiny_config):
        pool = AdapterPool(tiny_config)
        adapters = [make_adapter(tiny_config, f"t{i:03d}", seed=i) for i in range(32)]

        def worker(batch):
            for ad in batch:
                pool.add(ad)

        threads = [threading.Thread(target=worker, args=(adapters[i::4],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(pool) == 32
        assert pool.revision == 32


class TestPoolOperator:
    def test_sum_of_alpha_scaled_products(self, tiny_config):
        pool = make_pool(tiny_config, 3, alpha=1.7)
        got = pool.operator(pool.snapshot(), 1, "V")
        want = sum(a.alpha * a.factors[(1, "V")].a @ a.factors[(1, "V")].b for a in pool.snapshot()[1])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_kept_read_only_until_an_edit(self, tiny_config):
        pool = make_pool(tiny_config, 3)
        w = pool.operator(pool.snapshot(), 0, "Q")
        assert pool.operator(pool.snapshot(), 0, "Q") is w
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        pool.remove("ad00")
        assert pool.operator(pool.snapshot(), 0, "Q") is not w

    def test_build_for_a_left_revision_is_returned_not_kept(self, tiny_config):
        pool = make_pool(tiny_config, 3)
        old = pool.snapshot()
        pool.add(make_adapter(tiny_config, "late", seed=9))
        got = pool.operator(old, 0, "Q")
        assert np.array_equal(got, dense_operator(old[1], [a.alpha for a in old[1]], 0, "Q"))
        assert pool._operators == {}
        assert not np.array_equal(pool.operator(pool.snapshot(), 0, "Q"), got)


class TestSerialization:
    def test_round_trip_bitwise(self, tiny_config):
        ad = make_adapter(tiny_config, "roundtrip", seed=17, rank=5, alpha=3.25)
        raw = adapter_to_bytes(ad)
        back = adapter_from_bytes(raw)
        assert adapter_to_bytes(back) == raw
        assert back.id == ad.id and back.alpha == ad.alpha and back.rank == 5
        for key in ad.factors:
            assert np.array_equal(back.factors[key].a, ad.factors[key].a)
            assert np.array_equal(back.factors[key].b, ad.factors[key].b)

    def test_magic_prefix(self, tiny_config):
        assert adapter_to_bytes(make_adapter(tiny_config, "m", seed=0))[:4] == ADAPTER_MAGIC

    def test_unicode_id_round_trips(self, tiny_config):
        ad = make_adapter(tiny_config, "tâche-01", seed=0)
        assert adapter_from_bytes(adapter_to_bytes(ad)).id == "tâche-01"

    def test_file_round_trip(self, tiny_config, tmp_path):
        ad = make_adapter(tiny_config, "disk", seed=3)
        path = tmp_path / "ad.lgad"
        save_adapter(ad, str(path))
        back = load_adapter(str(path))
        assert adapter_to_bytes(back) == adapter_to_bytes(ad)

    def test_bad_magic(self, tiny_config):
        raw = bytearray(adapter_to_bytes(make_adapter(tiny_config, "x", seed=0)))
        raw[:4] = b"NOPE"
        with pytest.raises(FormatError, match="magic"):
            adapter_from_bytes(bytes(raw))

    def test_bad_version(self, tiny_config):
        raw = bytearray(adapter_to_bytes(make_adapter(tiny_config, "x", seed=0)))
        raw[4] = 200
        with pytest.raises(FormatError, match="version"):
            adapter_from_bytes(bytes(raw))

    def test_truncation(self, tiny_config):
        raw = adapter_to_bytes(make_adapter(tiny_config, "x", seed=0))
        with pytest.raises(FormatError, match="truncat"):
            adapter_from_bytes(raw[:-16])

    def test_trailing_garbage(self, tiny_config):
        raw = adapter_to_bytes(make_adapter(tiny_config, "x", seed=0))
        with pytest.raises(FormatError, match="trailing"):
            adapter_from_bytes(raw + b"\x01\x02")

    def test_hand_built_bytes_parse(self):
        ad = adapter_from_bytes(lgad_bytes(d_model=4, n_blocks=2, rank=3, alpha=0.5))
        assert (ad.d_model, ad.n_blocks, ad.rank, ad.alpha) == (4, 2, 3, 0.5)

    @pytest.mark.parametrize(
        "fields",
        [
            {"ident": b"\xff\xfe"},
            {"ident": b"has space"},
            {"d_model": 0},
            {"n_blocks": 0},
            {"rank": 0},
            {"alpha": float("nan")},
            {"fill": float("inf")},
        ],
        ids=["non-utf8-id", "whitespace-id", "d_model-0", "n_blocks-0", "rank-0", "nan-alpha", "inf-factor"],
    )
    def test_invalid_content_is_format_error(self, fields):
        with pytest.raises(FormatError):
            adapter_from_bytes(lgad_bytes(**fields))

    def test_byte_mutations_raise_only_format_error(self, tiny_config):
        blob = adapter_to_bytes(make_adapter(tiny_config, "fuzz", seed=0, rank=2))
        for data in byte_mutations(blob, seed=0, count=500):
            try:
                adapter_from_bytes(data)
            except FormatError:
                pass


class TestManifest:
    def test_manifest_round_trip(self, tiny_config, tmp_path):
        names = []
        for i in range(3):
            ad = make_adapter(tiny_config, f"mf{i}", seed=i)
            name = f"adapter_{i}.lgad"
            save_adapter(ad, str(tmp_path / name))
            names.append(name)
        manifest = tmp_path / "manifest.txt"
        write_manifest(str(manifest), names, header="adapter pool")
        pool = load_manifest(str(manifest), tiny_config)
        assert pool.ids() == ["mf0", "mf1", "mf2"]

    def test_comments_and_blank_lines_skipped(self, tiny_config, tmp_path):
        ad = make_adapter(tiny_config, "only", seed=0)
        save_adapter(ad, str(tmp_path / "one.lgad"))
        manifest = tmp_path / "m.txt"
        manifest.write_text("# comment\n\none.lgad\n# trailing comment\n")
        pool = load_manifest(str(manifest), tiny_config)
        assert pool.ids() == ["only"]

    def test_missing_adapter_file_raises(self, tiny_config, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("ghost.lgad\n")
        with pytest.raises(OSError):
            load_manifest(str(manifest), tiny_config)
