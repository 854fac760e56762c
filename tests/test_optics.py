import math

import numpy as np
import pytest

import circuit_reference as ref
from catamp import (Schedule, SourceModel, StageParams, cat_state, run_schedule,
                    squeezed_photon)
from catamp.cli import _build_parser
from catamp.optics import _beam_splitter_blocks, _mix_pairs, _mixing_basis
from circuit_reference import (apply_beam_splitter, apply_blocks, coherent_state,
                               fock_state)

# mixing angles: reflectivity sin(theta), transmittivity cos(theta)
FIFTY = math.pi / 4
THETAS = [0.3, math.pi / 4, 1.2]


def _mix(theta, a, b):
    """U1 applied to the product |a>|b>, as a c x c amplitude array."""
    c = len(a)
    return apply_beam_splitter(theta, np.kron(a, b)).reshape(c, c)


def _overlap(x, y):
    return abs(np.vdot(x, y)) ** 2


def test_beam_splitter_params_validation():
    vac = np.kron(fock_state(0, 8).amplitudes, fock_state(0, 8).amplitudes)
    apply_beam_splitter(math.atan2(0.6, 0.8), vac)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mixing angle"):
            apply_beam_splitter(theta, vac)


# The squeeze unitary is the reference's matrix exponential, which the
# closed-form squeezed states are checked against.

def test_squeeze_unitary_identity_at_zero():
    assert np.allclose(ref.squeeze_unitary(0.0, 12), np.eye(12), atol=1e-15)


def test_squeeze_unitary_reproduces_quoted_cat_fidelity():
    # squeezing a photon at r = 0.313 approximates the odd cat of size 1
    f = _overlap(ref.squeezed(0.313, 1, 30), cat_state(1.0, math.pi).amplitudes)
    assert abs(f - 0.997) < 1e-3


def test_squeeze_unitary_column_matches_series_at_r02():
    diff = np.abs(ref.squeeze_unitary(0.2, 30)[:, 1] - squeezed_photon(0.2).amplitudes)
    assert diff.max() < 1e-10


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5])
def test_squeeze_unitary_unitarity_on_low_block(r):
    u = ref.squeeze_unitary(r, 30)
    gram = u.conj().T @ u - np.eye(u.shape[0])
    assert np.abs(gram[:20, :20]).max() < 1e-8


def test_beam_splitter_identity_when_fully_transmitting():
    u = apply_beam_splitter(0.0, np.eye(100))
    assert np.allclose(u, np.eye(100), atol=1e-15)


def test_beam_splitter_block_structure_is_exact():
    c = 10
    u = apply_beam_splitter(FIFTY, np.eye(c * c))
    i1, i2 = np.divmod(np.arange(c * c), c)
    total = i1 + i2
    off_block = u[total[:, None] != total[None, :]]
    assert np.all(off_block == 0.0)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 8, 30, 64])
@pytest.mark.parametrize("theta", THETAS)
def test_blocks_match_reference_expm_matrix(cutoff, theta):
    # column by column against the reference's dense per-block expm, so
    # the c^2 x c^2 matrix is never built on either side: the images of
    # the number states |i>|j>, then of complex product columns
    n = cutoff * cutoff
    blocks = list(ref.beam_splitter_blocks(theta, cutoff))
    image = {col: (flat, v) for flat, block in blocks for col, v in zip(flat, block.T)}
    eye, worst = np.eye(cutoff), 0.0
    for i in range(cutoff):
        got = _mix_pairs(theta, eye[:, [i]], eye).reshape(n, cutoff)
        want = np.zeros_like(got)
        for j in range(cutoff):
            flat, v = image[i * cutoff + j]
            want[flat, j] = v
        worst = max(worst, np.abs(got - want).max())
    rng = np.random.default_rng(cutoff)
    a, b = rng.standard_normal((2, cutoff, 3, 2)) @ (1.0, 1j)
    got = _mix_pairs(theta, a, b).reshape(n, -1)
    assert got.dtype == np.complex128
    pairs = (a[:, None, :, None] * b[None, :, None, :]).reshape(got.shape)
    for flat, block in blocks:
        worst = max(worst, np.abs(got[flat] - block @ pairs[flat]).max())
    assert worst < 1e-11


KINDS = {"real x real": (False, False), "complex x real": (True, False),
         "real x complex": (False, True), "complex x complex": (True, True)}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("ranks", [(1, 1), (2, 3), (3, 2), (5, 5), (11, 11)])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 8, 30])
def test_mix_pairs_reproduces_the_broadcast_product_bit_for_bit(cutoff, ranks, kind):
    # the long-loop pair columns, per-parity mixing and gather must not
    # move a bit against one broadcast product mixed into a new array
    rng = np.random.default_rng([cutoff, *ranks])
    a, b = (rng.standard_normal((cutoff, r, 2)) @ ((1.0, 1j) if twist else (1.0, 0.0))
            for r, twist in zip(ranks, KINDS[kind]))
    # c = 1 with complex x complex inputs is exempt from bit equality: numpy
    # rounds an in-place complex multiply of one element differently from
    # an out-of-place one, so there the two agree only to round-off
    exact = not (cutoff == 1 and kind == "complex x complex")
    for theta in THETAS:
        got, want = _mix_pairs(theta, a, b), ref.mix_pairs_broadcast(theta, a, b)
        assert got.dtype == want.dtype == np.result_type(a, b)
        assert got.shape == (cutoff, cutoff, ranks[0] * ranks[1])
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def _hits_and_builds():
    info = _beam_splitter_blocks.cache_info()
    return info.hits, info.misses


def _definite(rng, shape, parity, twist=False):
    """Random columns, complex if ``twist``, that are exactly zero on the
    other photon-number parity."""
    x = rng.standard_normal((*shape, 2)) @ ((1.0, 1j) if twist else (1.0, 0.0))
    x[1 - parity::2] = 0.0
    return x


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("ranks", [(1, 1), (2, 3)])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 8, 30])
def test_mix_pairs_on_parity_definite_inputs_is_bit_for_bit(cutoff, ranks, kind):
    # pure inputs of definite parity are mixed by the blocks of their
    # total parity alone, mixed ones (more than one column) by both
    # parities' blocks; neither may move a bit against the broadcast product
    rng = np.random.default_rng([cutoff, *ranks, 2])
    exact = not (cutoff == 1 and kind == "complex x complex")  # as above
    # at c = 1 there is no odd photon number
    for pa, pb in ((0, 0), (1, 1), (0, 1), (1, 0))[:1 if cutoff == 1 else 4]:
        a, b = (_definite(rng, (cutoff, r), p) * (1j if twist else 1.0)
                for r, p, twist in zip(ranks, (pa, pb), KINDS[kind]))
        for theta in THETAS:
            _beam_splitter_blocks.cache_clear()
            got = _mix_pairs(theta, a, b)
            # a pure pair took the set of its total parity, a mixed pair
            # both sets: hits, not builds
            parities = [(pa + pb) % 2] if ranks == (1, 1) else [0, 1]
            for parity in parities:
                _beam_splitter_blocks(theta, cutoff, parity)
            assert _hits_and_builds() == (len(parities), len(parities))
            want = ref.mix_pairs_broadcast(theta, a, b)
            assert got.dtype == want.dtype == np.result_type(a, b)
            if exact:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def test_mix_pairs_with_one_parity_definite_input_takes_every_block():
    # a pure even input paired with one of both parities builds the even
    # set, then the odd
    rng = np.random.default_rng(5)
    even, mixed = _definite(rng, (12, 1), 0), rng.standard_normal((12, 3))
    for a, b in ((even, mixed), (mixed, even)):
        _beam_splitter_blocks.cache_clear()
        got = _mix_pairs(FIFTY, a, b)
        for parity in (0, 1):
            _beam_splitter_blocks(FIFTY, 12, parity)
        assert _hits_and_builds() == (2, 2)
        assert np.array_equal(got, ref.mix_pairs_broadcast(FIFTY, a, b))


@pytest.mark.parametrize("twist", [False, True])
@pytest.mark.parametrize("cutoff", [2, 3, 8, 30])
def test_parity_path_matches_reference_expm(cutoff, twist):
    # a pure parity-definite pair, mixed by its total parity's blocks
    # alone, against the reference's dense per-block expm, which shares
    # nothing with catamp's blocks; the other parity's rows are exact zeros
    n = cutoff * cutoff
    rng = np.random.default_rng([cutoff, twist])
    for theta in THETAS:
        blocks = list(ref.beam_splitter_blocks(theta, cutoff))
        for pa, pb in ((0, 0), (1, 1), (0, 1)):
            a, b = _definite(rng, (cutoff, 1), pa, twist), _definite(rng, (cutoff, 1), pb, twist)
            _beam_splitter_blocks.cache_clear()
            got = _mix_pairs(theta, a, b).reshape(n, -1)
            assert _beam_splitter_blocks.cache_info().misses == 1
            pairs = (a[:, None, :, None] * b[None, :, None, :]).reshape(got.shape)
            for total, (flat, block) in enumerate(blocks):
                if total % 2 == (pa + pb) % 2:
                    assert np.abs(got[flat] - block @ pairs[flat]).max() < 1e-11
                else:
                    assert np.all(got[flat] == 0.0)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 8, 30, 64])
def test_each_parity_fits_the_result(cutoff):
    # the rows are laid out parity first: each parity's rows are
    # contiguous, hold exactly that parity's states |k, N-k> and fit in
    # the c^2 rows of the result, whose leading rows hold its pairs while
    # U1 mixes them; its groups tile them in order
    basis = _mixing_basis(cutoff)
    real = basis.first < cutoff  # padding rows read c
    assert [r.start for r in basis.rows] == [0, basis.rows[0].stop]
    assert basis.rows[1].stop == len(basis.first)
    numbers = np.arange(cutoff)
    for parity, rows in enumerate(basis.rows):
        assert rows.stop - rows.start <= cutoff * cutoff
        held = real[rows]
        states = set(zip(basis.first[rows][held].tolist(), basis.second[rows][held].tolist()))
        assert len(states) == np.count_nonzero(held)
        assert states == {(i, j) for i in numbers for j in numbers if (i + j) % 2 == parity}
        start = 0
        for local, vecs, values in basis.groups[parity]:
            assert local.start == start and local.stop - start == vecs.shape[0] * vecs.shape[1]
            assert values.shape == vecs.shape[:2]
            start = local.stop
        assert start == rows.stop - rows.start
    # inverse maps the flat two-mode indices onto the real rows one to one
    assert np.array_equal(np.sort(basis.inverse), np.flatnonzero(real))
    flat = basis.first[basis.inverse] * cutoff + basis.second[basis.inverse]
    assert np.array_equal(flat, np.arange(cutoff * cutoff))


@pytest.mark.parametrize("cutoff", [1, 2, 3, 8, 30, 64])
def test_padding_rows_stay_zero(cutoff):
    # both parities' blocks act on the whole layout; the identity on each
    # block's padding keeps the zero padding rows zero
    basis = _mixing_basis(cutoff)
    pad = basis.first == cutoff
    assert np.array_equal(pad, basis.second == cutoff)
    rng = np.random.default_rng(cutoff)
    rows = np.zeros((len(pad), 3), dtype=np.complex128)
    rows[~pad] = rng.standard_normal((cutoff * cutoff, 3, 2)) @ (1.0, 1j)
    for theta in THETAS:
        for y in (rows.real.copy(), rows):
            assert np.all(apply_blocks(theta, cutoff, y)[pad] == 0.0)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 8, 30, 64])
@pytest.mark.parametrize("theta", THETAS)
def test_blocks_are_orthogonal(cutoff, theta):
    # per parity one stacked array per group of widths 8, 16, ... capped
    # at c that the parity's blocks use: 8 groups at c = 30 and 16 at
    # c = 64; the even set holds the c blocks of even N, the odd set the
    # c - 1 of odd N
    basis = _mixing_basis(cutoff)
    for parity, count in ((0, cutoff), (1, cutoff - 1)):
        groups = _beam_splitter_blocks(theta, cutoff, parity)
        sizes = [min(n, 2 * cutoff - 2 - n) + 1 for n in range(parity, 2 * cutoff - 1, 2)]
        widths = sorted({min(8 * math.ceil(d / 8), cutoff) for d in sizes})
        assert len(groups) == len(basis.groups[parity])
        assert sum(len(b) for b in groups) == count
        assert [b.shape[1:] for b in groups] == [(w, w) for w in widths]
        for b in groups:
            assert b.dtype == np.float64 and not b.flags.writeable
            gram = np.swapaxes(b, 1, 2) @ b
            assert np.abs(gram - np.eye(b.shape[1])).max() < 1e-13
    if cutoff in (30, 64):  # a pair of both parities makes one matmul call per group
        assert len(basis.groups[0]) + len(basis.groups[1]) == {30: 8, 64: 16}[cutoff]


def test_apply_beam_splitter_rejects_non_square_row_count():
    with pytest.raises(ValueError):
        apply_beam_splitter(FIFTY, np.zeros((10, 2)))
    with pytest.raises(ValueError):
        apply_beam_splitter(FIFTY, np.zeros((4, 2, 2)))


def test_apply_beam_splitter_keeps_real_input_real():
    c = 12
    x = np.random.default_rng(3).standard_normal((c * c, 5))
    real = apply_beam_splitter(FIFTY, x)
    cplx = apply_beam_splitter(FIFTY, x.astype(np.complex128))
    assert real.dtype == np.float64
    assert cplx.dtype == np.complex128
    assert np.abs(real - cplx).max() < 1e-14
    assert apply_beam_splitter(FIFTY, x[:, 0].astype(np.float32)).dtype == np.float64


def test_beam_splitter_coherent_displacement_rule():
    # 50:50 on |1> x |0> -> |1/sqrt2> x |-1/sqrt2>
    psi = _mix(FIFTY, coherent_state(1.0).amplitudes, coherent_state(0.0).amplitudes)
    want = np.outer(coherent_state(2 ** -0.5).amplitudes,
                    coherent_state(-(2 ** -0.5)).amplitudes)
    assert _overlap(psi, want) >= 1 - 1e-10


@pytest.mark.parametrize("params", [(2 ** -0.5, 2 ** -0.5), (0.6, 0.8),
                                    (0.28, math.sqrt(1 - 0.28 ** 2))])
def test_beam_splitter_coherent_covariance_grid(params):
    # the convention anchor: B|a>|b> = |ta+rb>|-ra+tb> across an amplitude grid
    r, t = params
    theta = math.atan2(r, t)
    for a in np.linspace(-1.5, 1.5, 5):
        for b in np.linspace(-1.5, 1.5, 5):
            psi = _mix(theta, coherent_state(a).amplitudes, coherent_state(b).amplitudes)
            want = np.outer(coherent_state(t * a + r * b).amplitudes,
                            coherent_state(-r * a + t * b).amplitudes)
            assert _overlap(psi, want) >= 1 - 1e-8


def test_beam_splitter_single_photon_split():
    psi = _mix(FIFTY, fock_state(1, 8).amplitudes, fock_state(0, 8).amplitudes)
    s = 1 / math.sqrt(2)
    assert np.isclose(psi[1, 0], s, atol=1e-12)
    assert np.isclose(psi[0, 1], -s, atol=1e-12)


def test_apply_beam_splitter_preserves_norm_and_vacuum():
    vac = fock_state(0, 12).amplitudes
    assert np.array_equal(_mix(FIFTY, vac, vac), np.outer(vac, vac))
    a, b = coherent_state(1.2, 25).amplitudes, cat_state(0.8, math.pi, 25).amplitudes
    assert abs(np.linalg.norm(_mix(FIFTY, a, b)) - 1.0) < 1e-10


def test_apply_beam_splitter_inverse_pair():
    # B(theta)^-1 = B(-theta), realized by feeding the modes in reverse order
    theta = math.atan2(0.6, 0.8)
    a, b = coherent_state(0.9, 20).amplitudes, coherent_state(-0.5, 20).amplitudes
    fwd = apply_beam_splitter(theta, np.kron(a, b)).reshape(20, 20)
    back = apply_beam_splitter(theta, fwd.T.ravel()).reshape(20, 20).T
    assert np.max(np.abs(back - np.outer(a, b))) < 1e-10


def test_apply_beam_splitter_mode_collision():
    # the reference cannot mix a mode with itself
    psi = ref.product(*(fock_state(0, 8).amplitudes,) * 3)
    with pytest.raises(ValueError):
        ref.apply_two_mode(ref.beam_splitter_unitary(FIFTY, 8), psi, 1, 1)


def test_two_cat_interference_matches_coherent_construction():
    # two equal odd cats through 50:50 collapse onto two branches:
    # (cat arms in the first mode) x vacuum minus vacuum x (cat arms)
    a = 2 ** -0.5
    cat = cat_state(a, math.pi).amplitudes
    psi = _mix(FIFTY, cat, cat)
    big = math.sqrt(2) * a
    vac = coherent_state(0.0).amplitudes
    arms = coherent_state(big).amplitudes + coherent_state(-big).amplitudes
    want = np.outer(arms, vac) - np.outer(vac, arms)
    assert _overlap(psi, want / np.linalg.norm(want)) >= 1 - 1e-6


def test_unitary_cache_returns_consistent_readonly_matrices():
    for parity in (0, 1):
        u1 = _beam_splitter_blocks(FIFTY, 12, parity)
        assert _beam_splitter_blocks(FIFTY, 12, parity) is u1
        _beam_splitter_blocks.cache_clear()
        u2 = _beam_splitter_blocks(FIFTY, 12, parity)
        assert u1 is not u2
        assert all(np.array_equal(b1, b2) for b1, b2 in zip(u1, u2))
        assert not any(b.flags.writeable for b in u1)


def test_unitary_cache_holds_two_block_sets():
    # equal-amplitude stages normalize to ratios that differ in the last
    # bit, yet all mix at exactly pi/4, so a schedule reuses its blocks
    amps = (0.3, 2 ** -0.5, 1.0, 2.5)
    ratios = {a / math.hypot(a, a) for a in amps}
    assert len(ratios) == 2
    angles = [StageParams(a, a, math.pi, math.pi).mixing_angle for a in amps]
    assert set(angles) == {FIFTY}
    # the odd squeezed photon's first stage builds the even set; the eigen
    # branches of every later stage take both sets, so the second stage
    # builds the odd one, and from then on every call is a hit
    source = SourceModel("squeezed-photon")
    _beam_splitter_blocks.cache_clear()
    run_schedule(Schedule(2.0, 1), source, cutoff=12)
    _beam_splitter_blocks(FIFTY, 12, 0)
    assert _hits_and_builds() == (1, 1)
    sched = Schedule(2.0, 4)
    _beam_splitter_blocks.cache_clear()
    for runs in (1, 2):
        run_schedule(sched, source, cutoff=12)
        assert _hits_and_builds() == (runs * 7 - 2, 2)
    for parity in (0, 1):
        _beam_splitter_blocks(FIFTY, 12, parity)
    assert _hits_and_builds() == (14, 2)
    # fig2's cats at pi/4 take the even set (odd x odd, even x even) and
    # the odd set (even x odd)
    args = _build_parser().parse_args(["fig2", "--cutoff", "8"])
    _beam_splitter_blocks.cache_clear()
    rows = len(args.run(args).rows)
    assert _hits_and_builds() == (3 * rows - 2, 2)
    for parity in (0, 1):
        _beam_splitter_blocks(FIFTY, 8, parity)
    assert _hits_and_builds() == (3 * rows, 2)
    # at most two sets are held, whatever the angles and cutoffs
    for theta in (math.atan2(0.6, 0.8), FIFTY, math.atan2(0.28, 0.96)):
        for cutoff in (8, 12):
            apply_beam_splitter(theta, np.eye(cutoff * cutoff)[0])
            assert _beam_splitter_blocks.cache_info().currsize == 2
