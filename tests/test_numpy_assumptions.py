"""numpy behaviour that bitwise claims of decal rest on, one named test each.

Each case fuzzes the behaviour directly, so a numpy that changes it fails
here, next to its cause, and not only as a changed golden digest. Among them:

- ``test_generator_random_is_zero_or_a_multiple_of_2_to_the_minus_53`` pins
  the floor on ``u`` that ``acquisition._draw``'s certified draw rests on;
- ``test_einsum_outer_products_of_a_row_block_equal_those_rows_of_the_whole_call``
  pins that BADGE seeding, which builds gradient-embedding rows from their two
  factors a block at a time, builds the rows ``learner.gradient_embedding``
  makes;
- ``test_matmul_and_add_reduce_over_a_stack_equal_each_trials_own_2d_call``
  pins that ``np.matmul``, with the trainer's ``swapaxes(-1, -2)`` operands,
  and ``np.add.reduce(..., -2)`` give each trial of a (trials, rows, dim)
  stack the bytes of its own 2-D call. ``learner.train_lockstep``'s claim
  that each trial is bitwise as it trains in a stack of one, and as the
  public loss call computes, rests on it.

The other assumptions are tested where the code that needs them is:

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


def _outer_factors(rng, n, classes, width):
    """Factor rows whose products include -0.0, subnormals, underflow to zero and overflow."""
    left = rng.standard_normal((n, classes)) * 10.0 ** rng.integers(-170, 170, size=(n, 1))
    right = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-170, 170, size=(n, 1))
    left[rng.random((n, classes)) < 0.1] = 0.0
    right[rng.random((n, width)) < 0.1] = -0.0
    left[rng.random((n, classes)) < 0.05] = 1e-300  # times 1e-20 or less: subnormal or zero
    right[rng.random((n, width)) < 0.05] = -1e-20
    return left, right


def test_einsum_outer_products_of_a_row_block_equal_those_rows_of_the_whole_call():
    # BADGE seeding builds embedding rows from gathered factor rows into a reused block buffer
    rng = np.random.default_rng(923)
    for case in range(300):
        n = int(rng.integers(1, 2500))
        classes, width = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        left, right = _outer_factors(rng, n, classes, width)
        with np.errstate(over="ignore", under="ignore"):
            whole = np.einsum("nc,nj->ncj", left, right)
            buf = np.empty((1024, classes, width))
            parts = [rng.permutation(n)[: int(rng.integers(1, min(n, 1024) + 1))], np.array([int(rng.integers(n))])]
            parts += [np.arange(start, min(start + 1024, n)) for start in range(0, n, 1024)]  # blocks and a tail
            for part in parts:
                block = np.einsum("nc,nj->ncj", left[part], right[part], out=buf[:len(part)])
                assert block.tobytes() == whole[part].tobytes()
            one = int(rng.integers(n))
            alone = np.einsum("nc,nj->ncj", left[one:one + 1], right[one:one + 1], out=buf[:1])
            assert alone.tobytes() == whole[one:one + 1].tobytes()


def test_einsum_with_a_ones_factor_changes_only_the_sign_of_zeros():
    # a matrix given to BADGE seeding is the factor pair (matrix, ones((n, 1)))
    rng = np.random.default_rng(925)
    for case in range(300):
        n, dim = int(rng.integers(1, 600)), int(rng.integers(1, 60))
        matrix = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-320, 300, size=(n, 1))
        matrix[rng.random((n, dim)) < 0.1] = -0.0
        matrix[rng.random((n, dim)) < 0.1] = 0.0
        built = np.einsum("nc,nj->ncj", matrix, np.ones((n, 1))).reshape(n, dim)
        same_bits = built.view(np.int64) == matrix.view(np.int64)
        assert np.all(same_bits | ((built == 0.0) & (matrix == 0.0)))
        assert np.all(same_bits[matrix != 0.0])


def test_cumsum_along_axis_1_equals_each_rows_own_cumsum():
    # a batched BADGE draw would take every trial's CDF row in one call
    rng = np.random.default_rng(913)
    for case in range(300):
        trials, n = int(rng.integers(1, 12)), int(rng.integers(1, 600))
        weights = rng.random((trials, n)) ** int(rng.integers(1, 40))
        whole = np.cumsum(weights, axis=1)
        for t in range(trials):
            assert whole[t].tobytes() == np.cumsum(weights[t]).tobytes()


def _stacked(rng, trials, rows, cols):
    """A (trials, rows, cols) view into a larger array, as the trainer's minibatches and parameters are,
    with values over many scales, ±inf and NaN."""
    spare = int(rng.integers(0, 3))
    base = rng.standard_normal((trials, rows + spare, cols)) * 10.0 ** rng.integers(-100, 100, size=(trials, 1, 1))
    base[rng.random(base.shape) < 0.02] = np.inf
    base[rng.random(base.shape) < 0.02] = -np.inf
    base[rng.random(base.shape) < 0.02] = np.nan
    return base[:, spare:]


def _oriented(array, swapped):
    return array.swapaxes(-1, -2) if swapped else array


def test_matmul_and_add_reduce_over_a_stack_equal_each_trials_own_2d_call():
    # train_lockstep trains each trial bitwise as in a stack of one, and as the public 2-D loss call
    rng = np.random.default_rng(927)
    for case in range(300):
        trials, r, d, m = (int(rng.integers(1, top + 1)) for top in (6, 40, 20, 20))
        a = _stacked(rng, trials, r, d)
        # the trainer's x @ w, h.swapaxes(-1, -2) @ dz and dz @ w_out.swapaxes(-1, -2), each with (stack, swapped)
        products = [((a, False), (_stacked(rng, trials, d, m), False)),
                    ((a, True), (_stacked(rng, trials, r, m), False)),
                    ((a, False), (_stacked(rng, trials, m, d), True))]
        with np.errstate(invalid="ignore", over="ignore"):
            for operands in products:
                left, right = (_oriented(o, swapped) for o, swapped in operands)
                whole = np.matmul(left, right, np.empty((trials, left.shape[-2], right.shape[-1])))
                for t in range(trials):
                    own = (_oriented(np.ascontiguousarray(o[t]), swapped) for o, swapped in operands)
                    assert whole[t].tobytes() == np.matmul(*own).tobytes()
            summed = np.add.reduce(a, -2, None, np.empty((trials, d)))
            for t in range(trials):
                assert summed[t].tobytes() == np.add.reduce(np.ascontiguousarray(a[t]), -2).tobytes()


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
