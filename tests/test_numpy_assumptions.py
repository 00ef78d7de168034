"""numpy behaviour that bitwise claims of decal rest on, one named test each.

Each case fuzzes the behaviour directly, so a numpy that changes it fails
here, next to its cause, and not only as a changed golden digest. Among them,
``test_generator_random_is_zero_or_a_multiple_of_2_to_the_minus_53`` pins the
floor on ``u`` that ``acquisition._draw``'s certified draw rests on. The other
assumptions are tested where the code that needs them is:

- ``Generator.choice``'s inverse-CDF arithmetic, which ``acquisition._draw``
  restates: ``tests/test_acquisition.py::TestBadgeDraw``;
- the running-column posterior scorers and ``_softmax``'s row-sum order,
  against the ``max(axis=1)`` and ``np.partition`` forms:
  ``tests/test_acquisition.py::TestColumnScorers``;
- ``np.loadtxt`` splitting and converting fields as the csv module and
  Python's ``int`` and ``float`` do: the parity cases of
  ``tests/test_data_parity.py``.
"""

import numpy as np


def test_integers_over_an_array_of_bounds_draws_one_scalar_call_per_bound():
    # decal_initialize draws one image of each chosen patient in one call
    rng = np.random.default_rng(909)
    for case in range(400):
        top = [2, 7, 2**32, 2**40][case % 4]  # bounds of 1 draw nothing; past 2**32 needs 64-bit draws
        bounds = rng.integers(1, top, size=int(rng.integers(0, 50)), endpoint=True)
        batched, scalar = np.random.default_rng(case), np.random.default_rng(case)
        drawn = batched.integers(bounds)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == [int(scalar.integers(int(bound))) for bound in bounds]
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert batched.integers(1 << 62) == scalar.integers(1 << 62)


def test_generator_random_is_zero_or_a_multiple_of_2_to_the_minus_53():
    # the BADGE draw's slack covers its rounding only for a nonzero u of at least 2**-53
    rng = np.random.default_rng(921)
    for case in range(300):
        ours = np.random.default_rng(int(rng.integers(2**63)))
        values = np.append(ours.random(int(rng.integers(0, 2000))), [ours.random() for _ in range(5)])
        scaled = values * 2.0**53  # a power of two: exact
        assert np.all((0.0 <= values) & (values < 1.0))
        assert np.array_equal(scaled, np.floor(scaled))


def test_einsum_of_a_row_does_not_depend_on_the_other_rows():
    # a batched BADGE pick would measure rows of several trials in one call
    rng = np.random.default_rng(911)
    for case in range(300):
        n, dim = int(rng.integers(1, 300)), int(rng.integers(1, 100))
        diff = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-150, 150)
        whole = np.einsum("ij,ij->i", diff, diff)
        rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        part = diff[rows]
        assert np.einsum("ij,ij->i", part, part).tobytes() == whole[rows].tobytes()
        row = int(rows[0])
        alone = diff[row:row + 1]
        assert np.einsum("ij,ij->i", alone, alone).tobytes() == whole[row:row + 1].tobytes()


def test_cumsum_along_axis_1_equals_each_rows_own_cumsum():
    # a batched BADGE draw would take every trial's CDF row in one call
    rng = np.random.default_rng(913)
    for case in range(300):
        trials, n = int(rng.integers(1, 12)), int(rng.integers(1, 600))
        weights = rng.random((trials, n)) ** int(rng.integers(1, 40))
        whole = np.cumsum(weights, axis=1)
        for t in range(trials):
            assert whole[t].tobytes() == np.cumsum(weights[t]).tobytes()


def test_repeat_along_axis_0_equals_indexing_by_repeated_rows():
    # the generator repeats each patient's mean image over its images instead of gathering it by owner
    rng = np.random.default_rng(915)
    for case in range(300):
        n, dim = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        rows = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300)
        counts = rng.integers(0, 9, size=n)
        repeated = np.repeat(rows, counts, axis=0)
        gathered = rows[np.repeat(np.arange(n), counts)]
        assert repeated.dtype == gathered.dtype and repeated.shape == gathered.shape
        assert repeated.tobytes() == gathered.tobytes()


def test_scaling_and_adding_in_place_equals_adding_the_scaled_array():
    # the generator scales its noise and adds the means in place: x *= s; x += b for b + s * x
    rng = np.random.default_rng(917)
    for case in range(300):
        n, dim = int(rng.integers(1, 300)), int(rng.integers(1, 12))
        x = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-200, 200)
        b = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-200, 200)
        s = float(rng.standard_normal() * 10.0 ** rng.integers(-200, 200))
        with np.errstate(over="ignore"):  # overflowed values must match too
            expected = b + s * x
            x *= s
            x += b
        assert x.tobytes() == expected.tobytes()


def test_loadtxt_takes_an_unterminated_quoted_last_field_at_the_end_of_input_as_closed():
    # why the CSV reader never ends a block after a '"': a block that ended inside a quoted field would load
    dtype = np.dtype([("id", np.int64), ("patient", object), ("value", np.float64)])
    rng = np.random.default_rng(919)
    for case in range(300):
        value = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
        before = [f"{i},q{i},{i / 4!r}\n" for i in range(int(rng.integers(0, 4)))]
        line = f'{case},p,"{value!r}' + ["", "\n", "\r\n", "\r"][case % 4]
        table = np.loadtxt(before + [line], dtype=dtype, delimiter=",", quotechar='"', comments=None,
                           encoding="utf-8", ndmin=1)
        assert len(table) == len(before) + 1
        assert table["value"][-1:].tobytes() == np.array([value]).tobytes()
