"""The fixture noise stream, frozen: `synth.uniforms` and
`synth.gaussian_field` against a per-draw reference written from the
scalar `synth.splitmix64` and Python's `math`, and SHA-256 pins of the
benchmark-sized fields."""

import hashlib
import math

import numpy as np
import pytest

from tvkit import synth

# odd counts and the edges of the generator's chunks
COUNTS = [0, 1, 2, 3, synth._CHUNK - 1, synth._CHUNK, synth._CHUNK + 1, 2 * synth._CHUNK + 1]
SEEDS = [0, 1, -1, 2**63, 2**64 - 1]


def reference_uniforms(seed, count):
    gen = synth.splitmix64(seed)
    return np.array([(next(gen) >> 11) * 2.0**-53 for _ in range(count)])


def reference_gaussians(seed, count):
    gen = synth.splitmix64(seed)
    out = []
    while len(out) < count:
        u1 = ((next(gen) >> 11) + 1) * 2.0**-53
        u2 = (next(gen) >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return np.array(out[:count])


def assert_same(got, expected):
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed", SEEDS, ids=str)
class TestStreamMatchesScalarReference:
    def test_uniforms(self, seed):
        expected = reference_uniforms(seed, max(COUNTS))
        for count in COUNTS:
            assert_same(synth.uniforms(seed, count), expected[:count])

    def test_gaussian_field(self, seed):
        expected = reference_gaussians(seed, max(COUNTS))
        for count in COUNTS:
            assert_same(synth.gaussian_field((count,), seed), expected[:count])
        # row-major over a 2-D shape with an odd count
        assert_same(synth.gaussian_field((3, 5), seed), expected[:15].reshape(3, 5))


# SHA-256 of the field's bytes, taken from the per-draw generator that
# preceded the array one; the benchmark's inputs add these fields
PINNED = {
    ((256, 256), 0): "20fb6d83b5268daad32a0decacc1dc16a253d833803c12bd567930b4c64c9b56",
    ((256, 256), 1): "c391324fe0c9a1dc23f487f483bfaed294de02f413d2c1baf05db80c64cd6719",
    ((256, 256), 2): "ff7571a5aa3790f19b62c1531ebf23627ae3435dbd67165cb45a24673768fd4e",
    ((256, 256), 3): "9894212c8165ea3db6251d47b98ccaaeabfe82c7434324ce3d70d0a7b4ceffc7",
    ((64, 64), 0): "3d4411b768f190bafe6f3e37ad4c3a782a64f502f2be93e39fe8c58488515a42",
    ((64, 64), 1): "04f9149813cae368991fbed9bb2190f223463d7d8491d456c3a753b700e77230",
    ((64, 64), 2): "44f40650862fef9a7e7d2f5d2e0995494880073119650b0800fd54fd3ad4350a",
    ((64, 64), 3): "0ea79acbe8f5a5c9263c986eebda5b81d9ddf9d645f9e79ce807903568341567",
}


@pytest.mark.parametrize("shape, seed", sorted(PINNED), ids=lambda v: str(v))
def test_pinned_field_digest(shape, seed):
    f = synth.gaussian_field(shape, seed)
    assert f.shape == shape and f.dtype == np.float64 and f.flags["C_CONTIGUOUS"]
    assert hashlib.sha256(f.tobytes()).hexdigest() == PINNED[shape, seed]
