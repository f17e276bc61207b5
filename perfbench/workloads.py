"""The three workloads: what one request does, how its output is checked, and
what the traced run probes beside it.

Every call into curv4 goes through a public function and sits inside a span
named after the module it enters ("<layer>.<operation>").  The untraced run
passes a tracer whose spans record nothing, so both runs execute the same
request code.  Probes run only in the traced run, after the request and
outside its span: they call directly, on the same input, a layer that the
request reaches only through another layer.
"""

from __future__ import annotations

import statistics
import tracemalloc
from fractions import Fraction

# curv4.classify is shadowed on the package by the function of the same name
from curv4 import berger, bivector, cli, estimates, io, surd, topology
from curv4.classify import classify, wpm_discriminant_oracle
from curv4.errors import DomainError

from inputs import EULER_PINCH_DECIMAL, Request

_CHECK_TOL = 1e-8
_FRAME_SAMPLES = 100000
# the CLI snaps decimal pinching levels within this distance to the exact constant
_SNAP_TOLERANCE = 5e-4
_VERDICTS = ("model_data", "rigidity_regime", "inconclusive")
POLYTOPE_LEMMAS = ("kupper", "kdiff", "a2a1")


class CheckFailed(Exception):
    """The program returned an output that disagrees with the generated input."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(got, want, tol: float) -> bool:
    return all(abs(float(g) - float(w)) <= tol for g, w in zip(got, want, strict=True))


def _mb(nbytes: int) -> float:
    return nbytes / 2**20


# -- oracles -------------------------------------------------------------------------


def run_oracles(req: Request, tr, state: dict) -> None:
    """One verification pass: the verify-all battery plus the cp2 frame sampler."""
    with tr.span("cli.battery"):
        state["battery"] = cli.run_battery(seed=req.seed)
    with tr.span("bivector.model_space"):
        cp2 = bivector.model_space("cp2")
    with tr.span("berger.frame_sampler"):
        state["frame_min"] = berger.frame_functional_min(cp2, _FRAME_SAMPLES, req.seed)


def check_oracles(req: Request, state: dict) -> None:
    checks = state["battery"]["checks"]
    _require(len(checks) > 0, "battery ran no checks")
    failed = [c["lemma"] for c in checks if not c["pass"]]
    _require(not failed and state["battery"]["failures"] == 0, f"battery checks failed: {failed}")
    ext = state["frame_min"].extremum
    _require(abs(ext - 0.5) <= 1e-2, f"cp2 frame minimum {ext} is not within 1e-2 of 1/2")


def _oracle_call(check: dict, seed: int):
    """The oracle behind one battery check: (span name, a call with the check's inputs)."""
    lemma, p, r = check["lemma"], check["params"], check["resolution"]
    if lemma == "k3k1":
        return "estimates.k3k1", lambda: estimates.lemma_k3k1_oracle(
            p["alpha"], p["delta"], resolution=r
        )
    if lemma == "algebraic2":
        return "estimates.algebraic2", lambda: estimates.lemma_algebraic2_oracle(
            p["a"], p["b"], resolution=r
        )
    if lemma in POLYTOPE_LEMMAS:
        param = p.get("alpha", p.get("delta"))
        return "estimates.polytope", lambda: estimates.pointwise_bound_oracle(
            lemma, param, resolution=r
        )
    if lemma == "wpm-discriminant":
        return "classify.wpm_oracle", lambda: wpm_discriminant_oracle(resolution=r)
    return "cli.hamilton_models", lambda: cli.run_verification(lemma, seed=seed)


def probe_oracles(req: Request, state: dict, tr) -> None:
    battery = state.get("battery")
    if battery is None:
        return
    for check in battery["checks"]:
        name, call = _oracle_call(check, req.seed)
        with tr.span(name):
            call()
    tr.count("cli.oracle_ms_in_battery", sum(c["elapsed_ms"] for c in battery["checks"]))
    poly = [c for c in battery["checks"] if c["lemma"] in POLYTOPE_LEMMAS]
    tr.count("cli.battery_passes")
    tr.count("estimates.polytope_checks", len(poly))
    tr.count("estimates.polytope_infeasible", sum(1 for c in poly if not c["feasible"]))
    if not tr.values:
        tr.values.update(_peak_memory(battery, req.seed))


def _peak_memory(battery: dict, seed: int) -> dict:
    """Median peak traced allocation per polytope oracle call, and per frame-sampler call.

    The peaks do not depend on the seed, so the traced run takes them once.
    """
    tracemalloc.start()
    try:
        poly = []
        for check in battery["checks"]:
            name, call = _oracle_call(check, seed)
            if name == "estimates.polytope":
                tracemalloc.reset_peak()
                call()
                poly.append(tracemalloc.get_traced_memory()[1])
        cp2 = bivector.model_space("cp2")
        tracemalloc.reset_peak()
        berger.frame_functional_min(cp2, _FRAME_SAMPLES, seed)
        sampler = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "estimates.polytope_peak_mb": _mb(statistics.median(poly)) if poly else 0.0,
        "berger.frame_sampler_peak_mb": _mb(sampler),
    }


# -- documents (float) and exact documents ------------------------------------------


def _load(req: Request, tr, state: dict):
    with tr.span("io.load"):
        obj = io.load_any(io.read_document(req.path))
    state["obj"] = obj
    if isinstance(obj, berger.BergerData):
        with tr.span("berger.to_operator"):
            op = berger.berger_to_operator(obj)
    else:
        op = obj
    state["op"] = op
    with tr.span("berger.extract"):
        state["data"] = berger.berger_data(op)
    with tr.span("io.dump"):
        state["out"] = io.berger_to_json(state["data"])
    return obj, op


def run_document(req: Request, tr, state: dict) -> None:
    """What `curv4 berger --frame`, `curv4 classify` and `curv4 decompose` compute."""
    obj, op = _load(req, tr, state)
    with tr.span("berger.frame"):
        state["frame"] = berger.reconstruct_frame(op)
    if state["frame"].frame.degenerate:
        tr.count("berger.degenerate_frames")
    with tr.span("classify.classify"):
        state["verdict"] = classify(obj)
    with tr.span("bivector.decompose"):
        state["decomposition"] = bivector.duality_decompose(op)


def _check_verdict(req: Request, state: dict) -> None:
    verdict = state["verdict"]
    _require(verdict.verdict in _VERDICTS, f"unknown verdict {verdict.verdict!r}")
    if req.model is not None:
        _require(
            verdict.verdict == "model_data" and req.model in verdict.candidates,
            f"{req.model} document classified {verdict.verdict} {verdict.candidates}",
        )


def check_document(req: Request, state: dict) -> None:
    scale = max(1.0, max(abs(x) for x in (*req.a, *req.b)))
    tol = _CHECK_TOL * scale
    data = state["data"]
    _require(_close(data.a, req.a, tol) and _close(data.b, req.b, tol), "recovered (a, b) differ")
    residual = state["frame"].residual
    _require(residual <= tol, f"frame residual {residual:.3e} above {tol:.1e}")
    _check_verdict(req, state)


def run_exact(req: Request, tr, state: dict) -> None:
    """`curv4 berger` + `curv4 classify` on exact documents, `chi-tau`, `constants`."""
    if req.kind == "chi_tau":
        alpha = req.alpha
        if alpha == EULER_PINCH_DECIMAL:
            # the CLI snaps this decimal to the exact constant (2 - sqrt3)/6
            with tr.span("surd.sharp_constants"):
                book = estimates.sharp_constants()
            alpha = book["constants"]["euler_pinch_alpha"].value
            _require(abs(float(alpha) - req.alpha) <= _SNAP_TOLERANCE, "snap target moved")
        with tr.span("topology.admissible"):
            state["report"] = topology.admissible_types(alpha)
        return
    if req.kind == "constants":
        with tr.span("surd.sharp_constants"):
            book = estimates.sharp_constants()
        state["book"] = book
        enclosures = []
        for c in book["constants"].values():
            with tr.span("surd.enclosure"):
                enclosures.append((c.value, c.decimal, c.enclosure))
        state["enclosures"] = enclosures
        return
    obj, _ = _load(req, tr, state)
    with tr.span("classify.classify"):
        state["verdict"] = classify(obj)


def _admissible_pairs(alpha: Fraction) -> list:
    """(tau, chi) pairs at pinching alpha, from the filters the paper states."""
    beta = 1 - 2 * alpha
    cap = 3 * (8 * (beta * beta - (1 - alpha) * (alpha + beta)) + Fraction(10, 3))
    pairs = [
        (tau, chi)
        for chi in range(2, 10)
        for tau in range(3)
        if chi < cap and (chi - tau) % 2 == 0 and 4 * chi > 15 * tau
    ]
    return pairs or [(0, 2)]


_EULER_PINCH_PAIRS = [(0, 2), (0, 4), (1, 5), (0, 6), (1, 7)]


def check_exact(req: Request, state: dict) -> None:
    if req.kind == "chi_tau":
        if req.alpha == EULER_PINCH_DECIMAL:
            want = _EULER_PINCH_PAIRS
        else:
            want = _admissible_pairs(req.alpha)
        got = [tuple(p) for p in state["report"].pairs]
        _require(got == want, f"chi-tau at {req.alpha}: {got} != {want}")
        return
    if req.kind == "constants":
        identities = state["book"]["identities"]
        _require(identities and all(identities.values()), f"identities fail: {identities}")
        for value, _, (lo, hi) in state["enclosures"]:
            x = float(value)
            _require(float(lo) <= x <= float(hi), f"enclosure [{lo}, {hi}] misses {x}")
        return
    out = state["out"]
    _require(
        out.get("a_exact") == [str(x) for x in req.a]
        and out.get("b_exact") == [str(x) for x in req.b],
        f"exact mirrors {out.get('a_exact')} {out.get('b_exact')} differ from {req.a} {req.b}",
    )
    _check_verdict(req, state)


# -- probes of the document workloads ----------------------------------------------------

THRESHOLDS = (
    "sec_upper_threshold",
    "weighted_sum_lower",
    "sec_diff_upper",
    "nonneg_sec_threshold",
    "nonneg_diff_threshold",
    "weyl_sum_threshold",
)


def probe_document(req: Request, state: dict, tr) -> None:
    """Direct calls into the layers a document request reaches only indirectly."""
    op, data = state.get("op"), state.get("data")
    if op is None or data is None:
        return
    exact = data.is_exact
    if not isinstance(state["obj"], berger.BergerData):
        if op.exact is not None:
            with tr.span("bivector.operator"):
                bivector.CurvatureOperator.from_exact(op.exact, op.lambda_einstein)
        else:
            with tr.span("bivector.operator"):
                bivector.CurvatureOperator(op.matrix, op.lambda_einstein)
        with tr.span("berger.to_operator"):
            berger.berger_to_operator(data)
    frame = state.get("frame")
    if frame is not None:
        with tr.span("bivector.conjugate"):
            bivector.conjugate_operator(op, frame.frame.matrix)
    if "decomposition" not in state:
        with tr.span("bivector.decompose"):
            bivector.duality_decompose(op)

    lam = data.lambda_einstein
    a2, a3 = data.a[1] / lam, data.a[2] / lam
    spread = a3 - a2
    closed = "estimates.closed_form_exact" if exact else "estimates.closed_form_float"
    if float(a3) <= 1.0:
        arg = a3 if exact else min(max(a3, 1.0 / 3.0), 1.0)
        with tr.span(closed):
            estimates.kupper_lower(arg)
    if 0 <= float(spread) < 2.0:
        with tr.span(closed):
            estimates.kdiff_lower(spread)
        if exact:
            radicand = 1 + 8 * spread * spread - 4 * spread
            with tr.span("surd.sqrt"):
                surd.QuadraticSurd.from_rational(radicand).sqrt()
    lhs = Fraction(a3)
    thresholds = _sharp_thresholds()
    with tr.span("surd.compare"):
        for threshold in thresholds:
            threshold < lhs  # noqa: B015 -- the comparison is what is timed

    if "verdict" in state:
        tr.count(f"classify.verdict.{state['verdict'].verdict}")
        # what classify spends rebuilding the four model normal forms per call
        with tr.span("classify.model_rederive"):
            for name in bivector.MODEL_NAMES:
                with tr.span("bivector.model_space"):
                    model = bivector.model_space(name)
                berger.berger_data(model)


def _sharp_thresholds() -> list:
    """The threshold surds classify compares its rows against."""
    book = estimates.sharp_constants()["constants"]
    return [book[name].value for name in THRESHOLDS]


def probe_exact(req: Request, state: dict, tr) -> None:
    if req.kind in ("chi_tau", "constants"):
        return
    probe_document(req, state, tr)


def probe_domain_errors(requests, tr) -> None:
    """classify on the fixed set of documents with spread a3 - a2 >= 2, after the
    traced loop: at the seed commit it raises DomainError on each (ROADMAP item
    4a), which the timed mixes leave out so that none of their requests fails.
    """
    for req in requests:
        obj = io.load_any(io.read_document(req.path))
        try:
            with tr.span("classify.out_of_domain"):
                classify(obj)
        except DomainError:
            tr.count("classify.domain_errors")


def probe_sharp_constants(tr, calls: int = 20) -> None:
    """surd.sharp_constants: the surd work that runs when classify is imported."""
    for _ in range(calls):
        with tr.span("surd.sharp_constants"):
            estimates.sharp_constants()


WORKLOADS = {
    "oracles": (run_oracles, check_oracles, probe_oracles),
    "documents": (run_document, check_document, probe_document),
    "exact": (run_exact, check_exact, probe_exact),
}
