"""U1, ``optics._mix_pairs``, against the reference's dense per-block
``expm`` and against its own recorded output bytes.

The ``expm`` tests hold every output to round-off. The digest tests hold
it to the bit: ``golden/mix_pairs.json`` keeps, per case of ``CASES``,
the sha256 of every output ``_mix_pairs`` gave on that case's inputs when
the file was recorded, on the recording machine's numpy and BLAS. When
it was first recorded, every output equalled, byte for byte, one
broadcast product of the columns mixed into a new array by the dense
per-block U1, but for the last bit of c = 1 complex x complex products.
A change meant to move bits (a new block arithmetic) records the file
again with ``python tests/test_optics.py`` and says so.
"""

import hashlib
import json
import math
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import circuit_reference as ref
from catamp import (Schedule, SourceModel, StageParams, cat_state, run_schedule,
                    squeezed_photon)
from catamp.cli import _build_parser
from catamp.optics import _beam_splitter_blocks, _mix_pairs
from circuit_reference import coherent_state, fock_state

DIGESTS = Path(__file__).with_name("golden") / "mix_pairs.json"

# mixing angles: reflectivity sin(theta), transmittivity cos(theta)
FIFTY = math.pi / 4
THETAS = [0.3, math.pi / 4, 1.2]


def _mix(theta, a, b):
    """U1 applied to the product |a>|b>, as a c x c amplitude array."""
    return _mix_pairs(theta, a[:, None], b[:, None]).reshape(len(a), len(b))


def _dense(theta, cutoff):
    """U1 as a c^2 x c^2 matrix: column i c + j is the image of |i>|j>."""
    eye = np.eye(cutoff)
    return _mix_pairs(theta, eye, eye).reshape(cutoff * cutoff, -1)


def _hits_and_builds():
    info = _beam_splitter_blocks.cache_info()
    return info.hits, info.misses


def _columns(rng, cutoff, rank, twist=False, parity=None):
    """Random c x rank columns, complex if ``twist``; with a ``parity``
    (0 or 1), exactly zero at the other parity's photon numbers."""
    x = rng.standard_normal((cutoff, rank, 2)) @ ((1.0, 1j) if twist else (1.0, 0.0))
    if parity is not None:
        x[1 - parity::2] = 0.0
    return x


def _products(a, b):
    """The products a_i (x) b_j of the columns as c^2 x (r_a r_b) rows."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _overlap(x, y):
    return abs(np.vdot(x, y)) ** 2


def test_beam_splitter_params_validation():
    vac = fock_state(0, 8).amplitudes
    _mix(math.atan2(0.6, 0.8), vac, vac)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mixing angle"):
            _mix(theta, vac, vac)


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
    assert np.allclose(_dense(0.0, 10), np.eye(100), atol=1e-15)


def test_beam_splitter_block_structure_is_exact():
    c = 10
    u = _dense(FIFTY, c)
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
    pairs = _products(a, b)
    for flat, block in blocks:
        worst = max(worst, np.abs(got[flat] - block @ pairs[flat]).max())
    assert worst < 1e-11


KINDS = {"real x real": (False, False), "complex x real": (True, False),
         "real x complex": (False, True), "complex x complex": (True, True)}
RANKS = [(1, 1), (2, 3), (3, 2), (5, 5), (11, 11)]
CUTOFFS = [1, 2, 3, 8, 30, 64]
# every case of the two digest tests, as (inputs, cutoff, ranks, kind):
# random columns of both parities at every rank, and columns of definite
# parity at ranks 1 x 1 and 2 x 3
CASES = ([("product", c, ranks, kind) for c in CUTOFFS for ranks in RANKS
          for kind in sorted(KINDS)]
         + [("definite", c, ranks, kind) for c in CUTOFFS for ranks in RANKS[:2]
            for kind in sorted(KINDS)])


def _case_id(inputs, cutoff, ranks, kind):
    """One case's key in the digest file, e.g. ``product 8-2x3-real x real``."""
    return f"{inputs} {cutoff}-{ranks[0]}x{ranks[1]}-{kind}"


@cache  # the recording test reuses the digest tests' digests
def _digest(inputs, cutoff, ranks, kind):
    """sha256 of every output of ``_mix_pairs`` on one case, at each angle
    of THETAS. ``product`` inputs are random columns of both parities;
    ``definite`` ones are even x even, odd x odd, even x odd and odd x even
    columns (at c = 1, which has no odd photon number, even x even alone).
    Each output has the dtype of a product of the inputs and the
    c x c x (r_a r_b) shape. A parity-definite pair takes the block set of
    its total parity when both inputs are pure, else both sets: hits, not
    builds."""
    rng = np.random.default_rng([cutoff, *ranks] + ([2] if inputs == "definite" else []))
    twists = KINDS[kind]
    if inputs == "product":
        pairs = [([_columns(rng, cutoff, r, t) for r, t in zip(ranks, twists)], None)]
    else:
        pairs = [([_columns(rng, cutoff, r, t, p) for r, t, p in zip(ranks, twists, parities)],
                  [sum(parities) % 2] if ranks == (1, 1) else [0, 1])
                 for parities in ((0, 0), (1, 1), (0, 1), (1, 0))[:1 if cutoff == 1 else 4]]
    digest = hashlib.sha256()
    for (a, b), sets in pairs:
        for theta in THETAS:
            _beam_splitter_blocks.cache_clear()
            got = _mix_pairs(theta, a, b)
            assert got.dtype == np.result_type(a, b)
            assert got.shape == (cutoff, cutoff, ranks[0] * ranks[1])
            if sets is not None:
                for parity in sets:
                    _beam_splitter_blocks(theta, cutoff, parity)
                assert _hits_and_builds() == (len(sets), len(sets))
            digest.update(got.tobytes())
    return digest.hexdigest()


@cache
def _recorded():
    return json.loads(DIGESTS.read_text())


def _record(path):
    """Write every case's digest to ``path`` as sorted JSON."""
    digests = {_case_id(*case): _digest(*case) for case in CASES}
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def test_digest_file_names_exactly_the_cases():
    # a case added or dropped without recording the file again fails here
    assert sorted(_recorded()) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_mix_pairs_reproduces_the_broadcast_product_bit_for_bit(cutoff, ranks, kind):
    # any byte of any output that moves fails its case, whatever the row
    # layout inside optics
    case = ("product", cutoff, ranks, kind)
    assert _digest(*case) == _recorded().get(_case_id(*case))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("ranks", RANKS[:2])
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_mix_pairs_on_parity_definite_inputs_is_bit_for_bit(cutoff, ranks, kind):
    # pure inputs of definite parity are mixed by the blocks of their total
    # parity alone, mixed ones by both parities' blocks; neither may move a
    # byte against the recorded outputs
    case = ("definite", cutoff, ranks, kind)
    assert _digest(*case) == _recorded().get(_case_id(*case))


def test_recording_again_writes_the_same_bytes(tmp_path):
    # the recorded file is the first run, this is the second
    _record(tmp_path / "mix_pairs.json")
    assert (tmp_path / "mix_pairs.json").read_bytes() == DIGESTS.read_bytes()


def test_mix_pairs_with_one_parity_definite_input_takes_every_block():
    # a pure even input paired with one of both parities builds the even
    # set, then the odd
    rng = np.random.default_rng(5)
    even, mixed = _columns(rng, 12, 1, parity=0), rng.standard_normal((12, 3))
    blocks = list(ref.beam_splitter_blocks(FIFTY, 12))
    for a, b in ((even, mixed), (mixed, even)):
        _beam_splitter_blocks.cache_clear()
        got = _mix_pairs(FIFTY, a, b).reshape(144, -1)
        for parity in (0, 1):
            _beam_splitter_blocks(FIFTY, 12, parity)
        assert _hits_and_builds() == (2, 2)
        pairs = _products(a, b)
        for flat, block in blocks:
            assert np.abs(got[flat] - block @ pairs[flat]).max() < 1e-11


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
            a, b = (_columns(rng, cutoff, 1, twist, p) for p in (pa, pb))
            _beam_splitter_blocks.cache_clear()
            got = _mix_pairs(theta, a, b).reshape(n, -1)
            assert _beam_splitter_blocks.cache_info().misses == 1
            pairs = _products(a, b)
            for total, (flat, block) in enumerate(blocks):
                if total % 2 == (pa + pb) % 2:
                    assert np.abs(got[flat] - block @ pairs[flat]).max() < 1e-11
                else:
                    assert np.all(got[flat] == 0.0)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 8, 30, 64])
@pytest.mark.parametrize("theta", THETAS)
def test_blocks_are_orthogonal(cutoff, theta):
    # the even set holds the c blocks of even N, the odd set the c - 1 of
    # odd N; each stack of blocks is real, orthogonal and read-only
    for parity, count in ((0, cutoff), (1, cutoff - 1)):
        groups = _beam_splitter_blocks(theta, cutoff, parity)
        assert sum(len(b) for b in groups) == count
        for b in groups:
            assert b.dtype == np.float64 and not b.flags.writeable
            gram = np.swapaxes(b, 1, 2) @ b
            assert np.abs(gram - np.eye(b.shape[1])).max() < 1e-13


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


def test_beam_splitter_preserves_norm_and_vacuum():
    vac = fock_state(0, 12).amplitudes
    assert np.array_equal(_mix(FIFTY, vac, vac), np.outer(vac, vac))
    a, b = coherent_state(1.2, 25).amplitudes, cat_state(0.8, math.pi, 25).amplitudes
    assert abs(np.linalg.norm(_mix(FIFTY, a, b)) - 1.0) < 1e-10


def test_beam_splitter_with_swapped_modes_is_its_inverse():
    # B(theta)^-1 = B(-theta) = S B(theta) S, S the swap of the two modes
    c = 20
    u = _dense(math.atan2(0.6, 0.8), c)
    swapped = u.reshape(c, c, c, c).transpose(1, 0, 3, 2).reshape(c * c, -1)
    assert np.abs(swapped @ u - np.eye(c * c)).max() < 1e-13


def test_reference_rejects_mode_collision():
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
            _dense(theta, cutoff)
            assert _beam_splitter_blocks.cache_info().currsize == 2


if __name__ == "__main__":
    _record(DIGESTS)
