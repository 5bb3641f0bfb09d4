"""Row-wise model operations against frozen per-row references.

The ``_Ref*``/``_ref_*`` code below is the parameter map, gradient, M-step,
restart perturbation, SQUAREM vector, trimming and parameter count as they
were when each walked a model's probability rows one at a time, frozen
here.  The library now walks whole blocks of rows (``model._blocks``).
The frozen gradient and M-step read an E-step per cluster (``gamma1``,
``xi``, ``emis_num``); ``_per_cluster`` shows them the library's flat
E-step record in that layout.

On a dense HMM, a left-to-right HMM, a K = 3 mixture of 2, 4 and 3 states
with a covariate, and models whose rows have exactly one free entry (an
LCM, an MM, an MMM), every result must be identical to the bit, and so must
the empty-posterior diagnostics and the ``RowAnnihilated`` messages.  The
same holds on generated masked models, whose rows are at most 3 wide.

The one stated exception: a row of 9 or more entries that has structural
zeros.  The block code sums such a row with its zeros in place, the frozen
code summed its free entries only, and numpy's pairwise summation groups
the terms of rows that long differently, so the parameter map's softmax
normalizer and the gradient's row totals may differ in the last bits
(``test_wide_masked_rows_within_stated_tolerance``).
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovseq import (
    CovariateDesign,
    HmmModel,
    MixtureModel,
    ParameterMap,
    SimSpec,
    build_mm,
    build_restricted_mixture,
    count_parameters,
    fit_em,
    simulate_hmm_data,
    simulate_parameters,
    trim_model,
)
from markovseq.errors import ImpossibleData, MarkovSeqError, RowAnnihilated
from markovseq.estimation import (
    _LOG_CLAMP,
    FitControl,
    _em_model,
    _em_vector,
    _gradient,
    _m_step,
    _perturb,
    expected_stats,
    gamma_m_step,
)
from markovseq.model import mixture_weights

from helpers import (
    hmm_and_data,
    mixture_and_data,
    random_dataset,
    random_hmm,
    uneven_mixture,
)

N, T = 60, 7
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


# ----------------------------------------------------------------------
# the frozen references
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _RowSpec:
    kind: str  # "init" | "trans" | "emis"
    cluster: int  # 0 for plain HMMs
    channel: int  # -1 unless kind == "emis"
    row: int
    free: np.ndarray  # indices of free entries within the row
    sl: slice  # coordinates in theta (len(free) - 1 wide)


class _RefParameterMap:
    def __init__(self, model):
        self.template = model
        self.is_mixture = isinstance(model, MixtureModel)
        hmms = model.clusters if self.is_mixture else (model,)
        self.rows = []
        pos = 0

        def add(kind, k, c, s, mask_row):
            nonlocal pos
            free = np.where(~mask_row)[0]
            width = max(len(free) - 1, 0)
            self.rows.append(_RowSpec(kind, k, c, s, free, slice(pos, pos + width)))
            pos += width

        for k, hmm in enumerate(hmms):
            add("init", k, -1, 0, hmm.initial_mask)
            for s in range(hmm.n_states):
                add("trans", k, -1, s, hmm.transition_mask[s])
            for c in range(hmm.n_channels):
                for s in range(hmm.n_states):
                    add("emis", k, c, s, hmm.emission_masks[c][s])
        if self.is_mixture:
            Q, K = model.gamma.shape
            self.gamma_slice = slice(pos, pos + Q * (K - 1))
            pos += Q * (K - 1)
        else:
            self.gamma_slice = slice(pos, pos)
        self.n_params = pos

    def _row_values(self, model, spec):
        hmm = model.clusters[spec.cluster] if self.is_mixture else model
        if spec.kind == "init":
            return hmm.initial
        if spec.kind == "trans":
            return hmm.transition[spec.row]
        return hmm.emissions[spec.channel][spec.row]

    def pack(self, model=None):
        model = model if model is not None else self.template
        theta = np.empty(self.n_params)
        for spec in self.rows:
            if len(spec.free) < 2:
                continue
            p = np.maximum(self._row_values(model, spec)[spec.free], _LOG_CLAMP)
            theta[spec.sl] = np.log(p[1:]) - np.log(p[0])
        if self.is_mixture:
            theta[self.gamma_slice] = model.gamma[:, 1:].ravel(order="F")
        return theta

    def unpack(self, theta):
        theta = np.asarray(theta, dtype=float)
        hmms = self.template.clusters if self.is_mixture else (self.template,)
        news = [
            {
                "initial": h.initial.copy(),
                "transition": h.transition.copy(),
                "emissions": [b.copy() for b in h.emissions],
            }
            for h in hmms
        ]
        for spec in self.rows:
            if len(spec.free) == 0:
                continue
            if len(spec.free) == 1:
                vals = np.ones(1)
            else:
                u = np.concatenate([[0.0], theta[spec.sl]])
                u -= u.max()
                e = np.exp(u)
                vals = e / e.sum()
            tgt = news[spec.cluster]
            if spec.kind == "init":
                tgt["initial"][spec.free] = vals
            elif spec.kind == "trans":
                tgt["transition"][spec.row, spec.free] = vals
            else:
                tgt["emissions"][spec.channel][spec.row, spec.free] = vals
        rebuilt = [h.with_params(**params) for h, params in zip(hmms, news)]
        if self.is_mixture:
            Q, K = self.template.gamma.shape
            gamma = np.zeros((Q, K))
            gamma[:, 1:] = theta[self.gamma_slice].reshape(Q, K - 1, order="F")
            return replace(self.template, clusters=tuple(rebuilt), gamma=gamma)
        return rebuilt[0]


def _ref_gradient(model, stats, design, pmap):
    hmms = model.clusters if pmap.is_mixture else (model,)
    per_cluster = stats.clusters or (stats,)
    grad = np.empty(pmap.n_params)
    for spec in pmap.rows:
        if len(spec.free) < 2:
            continue
        hmm, st_ = hmms[spec.cluster], per_cluster[spec.cluster]
        if spec.kind == "init":
            counts = st_.gamma1.sum(axis=0)
            probs = hmm.initial
        elif spec.kind == "trans":
            counts = st_.xi[spec.row]
            probs = hmm.transition[spec.row]
        else:
            counts = st_.emis_num[spec.channel][spec.row]
            probs = hmm.emissions[spec.channel][spec.row]
        total = counts[spec.free].sum()
        grad[spec.sl] = counts[spec.free][1:] - probs[spec.free][1:] * total
    if pmap.is_mixture:
        w = mixture_weights(model.gamma, design.X)
        g_gamma = design.X.T @ (stats.rho - w)
        grad[pmap.gamma_slice] = g_gamma[:, 1:].ravel(order="F")
    return grad, stats.loglik


def _ref_updated_rows(current, counts, flagged, what):
    out = current.copy()
    totals = counts.sum(axis=-1)
    for s in range(counts.shape[0]):
        if totals[s] > 0:
            out[s] = counts[s] / totals[s]
        else:
            flagged.add(f"{what} row {s}")
    return out


def _ref_m_step_hmm(model, stats, flagged, prefix=""):
    pi_counts = stats.gamma1.sum(axis=0)
    if pi_counts.sum() > 0:
        initial = pi_counts / pi_counts.sum()
    else:
        initial = model.initial
        flagged.add(f"{prefix}initial")
    transition = _ref_updated_rows(model.transition, stats.xi, flagged, f"{prefix}transition")
    emissions = [
        _ref_updated_rows(b, num, flagged, f"{prefix}emission[{c}]")
        for c, (b, num) in enumerate(zip(model.emissions, stats.emis_num))
    ]
    return model.with_params(initial=initial, transition=transition, emissions=emissions)


def _ref_m_step(m, stats, design, flagged):
    if not isinstance(m, MixtureModel):
        return _ref_m_step_hmm(m, stats, flagged)
    clusters = tuple(
        _ref_m_step_hmm(sub, st_, flagged, f"cluster {k} ")
        for k, (sub, st_) in enumerate(zip(m.clusters, stats.clusters))
    )
    gamma = m.gamma
    if m.n_clusters > 1:
        gamma = gamma_m_step(design, stats.rho, m.gamma).gamma
    return replace(m, clusters=clusters, gamma=gamma)


def _ref_perturb_row(row, mask, weight, rng):
    free = ~mask
    k = int(free.sum())
    if k < 2:
        return row
    out = row.copy()
    out[free] = (1.0 - weight) * row[free] + weight * rng.dirichlet(np.ones(k))
    return out


def _ref_perturb_hmm(m, weight, rng):
    initial = _ref_perturb_row(m.initial, m.initial_mask, weight, rng)
    transition = np.vstack(
        [_ref_perturb_row(m.transition[s], m.transition_mask[s], weight, rng)
         for s in range(m.n_states)]
    )
    emissions = [
        np.vstack(
            [_ref_perturb_row(b[s], m.emission_masks[c][s], weight, rng)
             for s in range(m.n_states)]
        )
        for c, b in enumerate(m.emissions)
    ]
    return m.with_params(initial=initial, transition=transition, emissions=emissions)


def _ref_perturb(m, weight, rng):
    if isinstance(m, MixtureModel):
        return replace(m, clusters=tuple(_ref_perturb_hmm(c, weight, rng) for c in m.clusters))
    return _ref_perturb_hmm(m, weight, rng)


def _ref_em_vector(m):
    hmms = m.clusters if isinstance(m, MixtureModel) else (m,)
    parts = [a.ravel() for h in hmms for a in (h.initial, h.transition, *h.emissions)]
    if isinstance(m, MixtureModel):
        parts.append(m.gamma.ravel())
    return np.concatenate(parts)


def _ref_em_model(template, x):
    pos = 0

    def take(shape):
        nonlocal pos
        n = int(np.prod(shape))
        pos += n
        return x[pos - n : pos].reshape(shape)

    def hmm(h):
        return h.with_params(
            initial=take(h.initial.shape),
            transition=take(h.transition.shape),
            emissions=[take(b.shape) for b in h.emissions],
        )

    if isinstance(template, MixtureModel):
        clusters = tuple(hmm(h) for h in template.clusters)
        return replace(template, clusters=clusters, gamma=take(template.gamma.shape))
    return hmm(template)


def _ref_trim_row(row, mask, tol, where, idx):
    drop = row < tol
    if np.all(drop):
        raise RowAnnihilated(f"{where} row {idx}: every entry below tol={tol}")
    if not np.any(drop):
        return row, mask
    new_row = np.where(drop, 0.0, row)
    removed = row[drop & ~mask].sum()
    if removed > 0:
        new_row = new_row / new_row.sum()
    return new_row, mask | drop


def _ref_trim_hmm(m, tol):
    initial, imask = _ref_trim_row(m.initial, m.initial_mask, tol, "initial", 0)
    t_rows, t_masks = zip(
        *(_ref_trim_row(m.transition[s], m.transition_mask[s], tol, "transition", s)
          for s in range(m.n_states))
    )
    emissions, emasks = [], []
    for c, b in enumerate(m.emissions):
        rows, masks = zip(
            *(_ref_trim_row(b[s], m.emission_masks[c][s], tol, f"emission[{c}]", s)
              for s in range(m.n_states))
        )
        emissions.append(np.vstack(rows))
        emasks.append(np.vstack(masks))
    return HmmModel(
        state_names=m.state_names,
        channel_names=m.channel_names,
        alphabets=m.alphabets,
        initial=initial,
        transition=np.vstack(t_rows),
        emissions=tuple(emissions),
        initial_mask=imask,
        transition_mask=np.vstack(t_masks),
        emission_masks=tuple(emasks),
    )


def _ref_trim(m, tol):
    if isinstance(m, MixtureModel):
        return replace(m, clusters=tuple(_ref_trim_hmm(c, tol) for c in m.clusters))
    return _ref_trim_hmm(m, tol)


def _ref_row_free(mask_row):
    return max(int(np.sum(~mask_row)) - 1, 0)


def _ref_hmm_param_count(m):
    p = _ref_row_free(m.initial_mask)
    p += sum(_ref_row_free(m.transition_mask[s]) for s in range(m.n_states))
    for mask in m.emission_masks:
        p += sum(_ref_row_free(mask[s]) for s in range(m.n_states))
    return p


def _ref_count(m):
    if not isinstance(m, MixtureModel):
        return _ref_hmm_param_count(m)
    gamma = len(m.design_names) * (m.n_clusters - 1)
    return sum(_ref_hmm_param_count(c) for c in m.clusters) + gamma


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------


def _with_free_zero(m):
    """``m`` with one free emission entry moved to exactly 0, as EM can
    leave it; packing clamps its log-ratio."""
    b = m.emissions[0].copy()
    b[0, 1] += b[0, 0]
    b[0, 0] = 0.0
    return m.with_params(emissions=[b, *m.emissions[1:]])


def _dense():
    rng = np.random.default_rng(1201)
    m = _with_free_zero(random_hmm(rng, 4, [3, 9]))
    return m, random_dataset(rng, m, N, T, missing_rate=0.1), None


def _left_to_right():
    spec = SimSpec(n_subjects=N, n_time=T, seed=1202, n_states=4, n_symbols=(3, 9),
                   left_to_right=True)
    m = simulate_parameters(spec)
    return m, random_dataset(np.random.default_rng(1202), m, N, T, missing_rate=0.1), None


def _mixture():
    rng = np.random.default_rng(1203)
    mix, design = uneven_mixture(rng, [3, 9], (2, 4, 3), N)
    return mix, random_dataset(rng, mix.clusters[0], N, T, missing_rate=0.1), design


def _lcm():
    rng = np.random.default_rng(1204)
    data = random_dataset(rng, random_hmm(rng, 1, [3, 4]), N, T, missing_rate=0.1)
    design = CovariateDesign.intercept(N)
    return build_restricted_mixture("lcm", data, 3, design, rng_seed=4), data, design


def _mmm():
    rng = np.random.default_rng(1205)
    data = random_dataset(rng, random_hmm(rng, 1, [4]), N, T, missing_rate=0.1)
    design = CovariateDesign.intercept(N)
    return build_restricted_mixture("mmm", data, 2, design, rng_seed=5), data, design


def _mm():
    rng = np.random.default_rng(1206)
    data = random_dataset(rng, random_hmm(rng, 1, [4]), N, T, missing_rate=0.1)
    return build_mm(data), data, None


CASES = {
    "dense": _dense,
    "left_to_right": _left_to_right,
    "mixture_2_4_3": _mixture,
    "lcm": _lcm,
    "mmm": _mmm,
    "mm": _mm,
}


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------


def _arrays(m):
    """Every value and mask array of a model, and a mixture's gamma."""
    hmms = m.clusters if isinstance(m, MixtureModel) else (m,)
    out = []
    for h in hmms:
        out += [h.initial, h.transition, *h.emissions]
        out += [h.initial_mask, h.transition_mask, *h.emission_masks]
    if isinstance(m, MixtureModel):
        out.append(m.gamma)
    return out


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _same_model(got, want):
    assert type(got) is type(want)
    g, w = _arrays(got), _arrays(want)
    assert len(g) == len(w)
    for a, b in zip(g, w):
        _same_bits(a, b)


def _outcome(call):
    """(result, None) or (None, (error type, message))."""
    try:
        return call(), None
    except MarkovSeqError as err:
        return None, (type(err), str(err))


def _per_cluster(m, stats):
    """An E-step record in the per-cluster layout the frozen references
    read: an HMM's counts as ``gamma1`` (its initial row, whose sum over
    axis 0 is itself), ``xi`` and ``emis_num``, a mixture's one such view
    per cluster in ``clusters``."""
    n = len(stats.counts) // len(m.clusters if isinstance(m, MixtureModel) else (m,))
    views = [
        SimpleNamespace(gamma1=counts[0], xi=counts[1], emis_num=counts[2:])
        for counts in (stats.counts[i : i + n] for i in range(0, len(stats.counts), n))
    ]
    if isinstance(m, MixtureModel):
        return SimpleNamespace(loglik=stats.loglik, rho=stats.rho, clusters=tuple(views))
    return SimpleNamespace(loglik=stats.loglik, rho=stats.rho, clusters=(), **vars(views[0]))


def _agree(got_call, want_call):
    """Both calls build the same model bit for bit, or raise the same error;
    returns the model, or None."""
    got, got_err = _outcome(got_call)
    want, want_err = _outcome(want_call)
    assert got_err == want_err
    if want_err is None:
        _same_model(got, want)
    return got


def _check_all(m, data, design, rng):
    """Every row-wise operation of the library against its frozen reference;
    True when the data were possible, so the E-step-based ones ran too."""
    pmap, ref = ParameterMap(m), _RefParameterMap(m)
    assert pmap.n_params == ref.n_params == _ref_count(m) == count_parameters(m, data).p
    theta = pmap.pack()
    _same_bits(theta, ref.pack())
    moved = theta + rng.normal(scale=0.5, size=theta.size)
    _same_model(pmap.unpack(moved), ref.unpack(moved))
    _same_model(pmap.unpack(theta), ref.unpack(theta))

    try:
        stats = expected_stats(m, data, design=design)
    except ImpossibleData:  # generated data can be impossible under the model
        stats = None
    if stats is not None:
        old = _per_cluster(m, stats)
        _same_bits(_gradient(m, stats, pmap, design), _ref_gradient(m, old, design, ref)[0])
        got_flags, want_flags = set(), set()
        _agree(
            lambda: _m_step(m, stats, design, got_flags),
            lambda: _ref_m_step(m, old, design, want_flags),
        )
        assert got_flags == want_flags

    for seed in (1, 2):
        _same_model(
            _perturb(m, 0.4, np.random.default_rng(seed)),
            _ref_perturb(m, 0.4, np.random.default_rng(seed)),
        )

    _same_bits(_em_vector(m), _ref_em_vector(m))
    other = _em_vector(_perturb(m, 0.4, np.random.default_rng(3)))
    _same_model(_em_model(m, other), _ref_em_model(m, other))
    other[1] = -1e-3
    assert _agree(lambda: _em_model(m, other), lambda: _ref_em_model(m, other)) is None

    for tol in (0.02, 0.1, 0.3):
        trimmed = _agree(lambda: trim_model(m, tol), lambda: _ref_trim(m, tol))
        if trimmed is not None:
            assert count_parameters(trimmed, data).p == _ref_count(trimmed)
    return stats is not None


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_row_operations_match_reference(case):
    m, data, design = CASES[case]()
    assert _check_all(m, data, design, np.random.default_rng(len(case)))


def test_cases_reach_what_they_name():
    """The cases hold the row shapes they are named for."""
    m = CASES["dense"]()[0]
    assert not m.emission_masks[1].any() and m.emissions[1].shape[1] == 9
    assert m.emissions[0][0, 0] == 0.0 and not m.emission_masks[0][0, 0]
    m = CASES["left_to_right"]()[0]
    assert (m.transition_mask == ~np.triu(np.ones((4, 4), dtype=bool))).all()
    mix = CASES["mixture_2_4_3"]()[0]
    assert [c.n_states for c in mix.clusters] == [2, 4, 3] and mix.gamma.shape == (2, 3)
    lcm = CASES["lcm"]()[0]
    assert all(c.transition.shape == (1, 1) for c in lcm.clusters)
    for m in (CASES["mmm"]()[0].clusters[0], CASES["mm"]()[0]):
        assert ((~m.emission_masks[0]).sum(axis=1) == 1).all()


def _starved(stats, mixture):
    """A copy of E-step counts with no mass in chosen rows: the initial
    counts, transition row 1 and emission row 0 of channel 1 (of cluster 1
    in a mixture), each model here having two channels."""
    counts = [a.copy() for a in stats.counts]
    initial, transition, _, emission_1 = counts[4:8] if mixture else counts[:4]
    initial[...] = 0.0
    transition[1] = 0.0
    emission_1[0] = 0.0
    return replace(stats, counts=counts)


@pytest.mark.parametrize("case", ["dense", "mixture_2_4_3"])
def test_empty_posterior_diagnostics_unchanged(case):
    m, data, design = CASES[case]()
    mixture = isinstance(m, MixtureModel)
    stats = _starved(expected_stats(m, data, design=design), mixture)
    got, want = set(), set()
    old = _per_cluster(m, stats)
    _same_model(_m_step(m, stats, design, got), _ref_m_step(m, old, design, want))
    prefix = "cluster 1 " if mixture else ""
    assert got == want == {
        f"{prefix}initial", f"{prefix}transition row 1", f"{prefix}emission[1] row 0"
    }


def test_empty_posterior_diagnostics_of_a_fit():
    """A left-to-right chain whose last state is never entered: EM keeps
    that state's transition and emission rows, and says so."""
    spec = SimSpec(n_subjects=N, n_time=T, seed=1207, n_states=3, n_symbols=(3,),
                   left_to_right=True)
    m = simulate_parameters(spec)
    initial = np.array([1.0, 0.0, 0.0])
    transition = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    m = replace(m, initial=initial, transition=transition, initial_mask=initial == 0,
                transition_mask=transition == 0)
    data = random_dataset(np.random.default_rng(1207), m, N, T)
    res = fit_em(m, data, control=FitControl(em_max_iter=3))
    assert res.diagnostics == [
        f"empty_posterior: {w} kept at current values"
        for w in ("emission[0] row 1", "emission[0] row 2", "transition row 1", "transition row 2")
    ]


@pytest.mark.parametrize(
    "where, row, build",
    [
        ("initial", 0, lambda m: m.with_params(initial=np.full(4, 0.25))),
        ("transition", 2, lambda m: m.with_params(
            transition=np.vstack([m.transition[:2], np.full(4, 0.25), m.transition[3:]])
        )),
        ("emission[1]", 3, lambda m: m.with_params(
            emissions=[m.emissions[0], np.vstack([m.emissions[1][:3], np.full(9, 1 / 9)])]
        )),
    ],
)
def test_row_annihilated_messages_unchanged(where, row, build):
    m = build(CASES["dense"]()[0])
    tol = 0.26 if where != "emission[1]" else 0.12
    with pytest.raises(RowAnnihilated) as want:
        _ref_trim(m, tol)
    with pytest.raises(RowAnnihilated) as got:
        trim_model(m, tol)
    assert str(got.value) == str(want.value) == f"{where} row {row}: every entry below tol={tol}"


# (model, data, design) from a generated masked HMM or mixture
masked_models = st.one_of(
    hmm_and_data().map(lambda case: (*case, None)),
    mixture_and_data().map(lambda case: (case[0], case[2], case[1])),
)


@SETTINGS
@given(masked_models)
def test_generated_masked_models_match_reference(case):
    m, data, design = case
    _check_all(m, data, design, np.random.default_rng(0))


def test_wide_masked_rows_within_stated_tolerance():
    """Rows of 10 and 12 entries with structural zeros.  The unpacked
    probabilities agree with the frozen code to relative 1e-15 (3 units in
    the last place were seen), and the gradient to 4 units in the last place
    of N * T, the largest a row's total count can be (its entries are
    differences of counts of that size; half a unit was seen).  Everything
    else stays identical to the bit."""
    rng = np.random.default_rng(1208)
    spec = SimSpec(n_subjects=N, n_time=T, seed=1208, n_states=10, n_symbols=(12,),
                   left_to_right=True)
    m = simulate_parameters(spec)
    b = m.emissions[0] * (rng.random((10, 12)) < 0.7)
    b[:, 0] += 1e-3  # every row keeps a free entry
    b /= b.sum(axis=1, keepdims=True)
    m = replace(m, emissions=(b,), emission_masks=(b == 0,))
    data = simulate_hmm_data(m, N, T, 1208)[0]  # possible under the model
    pmap, ref = ParameterMap(m), _RefParameterMap(m)
    assert pmap.n_params == ref.n_params == _ref_count(m) == count_parameters(m, data).p
    theta = pmap.pack()
    _same_bits(theta, ref.pack())
    moved = theta + rng.normal(scale=0.5, size=theta.size)
    got, want = pmap.unpack(moved), ref.unpack(moved)
    np.testing.assert_allclose(_em_vector(got), _ref_em_vector(want), rtol=1e-15, atol=0)
    stats = expected_stats(m, data)
    old = _per_cluster(m, stats)
    grad, want = _gradient(m, stats, pmap, None), _ref_gradient(m, old, None, ref)[0]
    np.testing.assert_allclose(grad, want, rtol=0, atol=4 * np.spacing(float(N * T)))
    got_flags, want_flags = set(), set()
    _same_model(_m_step(m, stats, None, got_flags), _ref_m_step(m, old, None, want_flags))
    assert got_flags == want_flags
    for seed in (1, 2):
        _same_model(
            _perturb(m, 0.4, np.random.default_rng(seed)),
            _ref_perturb(m, 0.4, np.random.default_rng(seed)),
        )
    _same_model(trim_model(m, 0.05), _ref_trim(m, 0.05))
