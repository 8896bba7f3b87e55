"""Gradient-guided loss construction.

The training objective augments a base cross-entropy with penalties on the
base gradient g = dL/dtheta itself: a direction term pulling g/|g| toward a
maintained prior direction, a magnitude term pulling |g| toward a target tau,
and a contrast term penalizing misalignment with a source-task gradient.

Both modes train on the chain rule: the update is g + H·w, where w = dR/dg
comes from the closed forms in this module and H is the base loss Hessian.
They differ only in how H·w is obtained (see trainer): ``exact`` mode takes
it from forward mode over the step's own reverse sweep, exact to machine
precision, and ``fd-hvp`` mode from one finite difference of base gradients.
The penalties can also be built on the tape from a create_graph gradient,
so that double backprop differentiates the total; that is the reference
both routes are tested against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Literal, Mapping

import numpy as np

from . import autodiff as ad
from . import fields
from . import model as md
from .autodiff import Tensor

logger = logging.getLogger(__name__)

MODES = ("exact", "fd-hvp")


class GuidanceError(fields.FieldError):
    """Invalid guidance configuration or term preconditions."""


@dataclass(frozen=True)
class GuidanceConfig:
    """Weights and knobs for the gradient penalties.

    ``tau`` may be the string "auto", in which case the trainer resolves it
    to the median warmup gradient norm before any step runs.
    """

    lambda1: fields.NonNegativeFloat = 0.1
    lambda2: fields.NonNegativeFloat = 0.1
    lambda3: fields.NonNegativeFloat = 0.1
    tau: fields.PositiveFloat | Literal["auto"] = "auto"
    beta: fields.Decay = 0.9
    mode: Literal[MODES] = "exact"
    epsilon_norm_guard: fields.PositiveFloat = 1e-12

    def __post_init__(self):
        fields.check(self, GuidanceError)

    def any_active(self) -> bool:
        return self.lambda1 > 0.0 or self.lambda2 > 0.0 or self.lambda3 > 0.0

    def with_tau(self, tau: float) -> "GuidanceConfig":
        return replace(self, tau=float(tau))

    @classmethod
    def from_dict(cls, d) -> "GuidanceConfig":
        return fields.from_dict(cls, d, GuidanceError)


@dataclass(frozen=True)
class DirectionPrior:
    """Unit reference direction in flat parameter space, plus how many
    gradients have been folded in.  ``direction`` is None until the first
    observation."""

    direction: np.ndarray | None = None
    count: int = 0

    @property
    def initialized(self) -> bool:
        return self.count > 0 and self.direction is not None


def update_prior(prior: DirectionPrior, g, config: GuidanceConfig) -> DirectionPrior:
    """Fold one gradient into the prior: d' = normalize(beta*d + (1-beta)*g/|g|)."""
    gv = _vec(g)
    n = norm(gv)
    if n <= config.epsilon_norm_guard:
        logger.warning("update_prior: zero-norm gradient ignored (count=%d)", prior.count)
        return prior
    unit = gv / n
    if not prior.initialized:
        return DirectionPrior(unit, 1)
    mix = config.beta * prior.direction + (1.0 - config.beta) * unit
    mn = float(np.linalg.norm(mix))
    if mn <= config.epsilon_norm_guard:
        # beta*d and (1-beta)*unit cancelled exactly; keep the old direction
        logger.warning("update_prior: degenerate EMA mix, prior kept")
        return DirectionPrior(prior.direction, prior.count + 1)
    return DirectionPrior(mix / mn, prior.count + 1)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-step scalar components, with the base gradient's norm and its
    cosines to the prior and the source gradient (None where undefined)."""

    base: float
    dir: float
    mag: float
    contrast: float
    total: float
    grad_norm: float
    cos_prior: float | None
    cos_source: float | None = None
    flags: tuple[str, ...] = ()


def _vec(g) -> np.ndarray:
    if isinstance(g, Tensor):
        return g.values
    return np.asarray(g, dtype=np.float64).reshape(-1)


_F64 = np.dtype(np.float64)


# The square root of the least normal float: below it the sum of squares is
# subnormal or 0, and has lost bits to underflow.
_TINY_NORM = math.sqrt(np.finfo(np.float64).tiny)


def norm(v: np.ndarray) -> float:
    """‖v‖, as m·‖v/m‖ with m = max |v| only where the sum of squares of a
    finite nonzero v overflows (entries near 1e160) or is below the normal
    range (entries below ~1e-154), so every other v keeps its bits.

    On a C-contiguous 1-d float64 vector ``np.linalg.norm`` is the square
    root of ``v.dot(v)``; that is taken directly, without its Python wrapper
    (``v @ v`` has the same bits but costs more than the wrapper saves).
    Through ``np.linalg.norm`` alone, the step p50 was +2.5 % on attn-exact
    and +2.6 % on pair-compare (43 and 35 of 60 in-process rounds slower).
    Any other input (a strided view among them, whose dot can round
    differently from the contiguous one) goes through ``np.linalg.norm``."""
    if (type(v) is np.ndarray and v.ndim == 1 and v.dtype == _F64
            and v.flags.c_contiguous):
        n = math.sqrt(float(v.dot(v)))
    else:
        n = float(np.linalg.norm(v))
    if not _TINY_NORM <= n < math.inf:
        m = float(np.max(np.abs(v), initial=0.0))
        if 0.0 < m < math.inf:
            n = m * float(np.linalg.norm(v / m))
    return n


class _Polar:
    """A flat gradient ``v`` with its norm ``n`` and its direction ``u`` =
    v/n, computed when first read.  ``build_objective`` builds one per step
    and hands it to every closed form below, which otherwise build their own
    from the gradient they are given."""

    __slots__ = ("v", "n", "_u")

    def __init__(self, g):
        self.v = _vec(g)
        self.n = norm(self.v)
        self._u = None

    @property
    def u(self) -> np.ndarray:
        if self._u is None:
            self._u = self.v / self.n
        return self._u


def _polar(g) -> _Polar:
    return g if isinstance(g, _Polar) else _Polar(g)


def clip_cosine(c: float) -> float:
    # rounding can push |cos| a few ulp past 1
    return min(1.0, max(-1.0, float(c)))


# -- scalar closed forms (the objective, w = dR/dg, and oracle targets) -------

def direction_regularizer(g, prior: DirectionPrior, lambda1: float,
                          guard: float = 1e-12) -> float:
    """lambda1 * ||g/|g| - d_prior||^2; guarded constant when |g| ~ 0."""
    if not prior.initialized:
        raise GuidanceError("direction_regularizer: prior has no observations")
    pg = _polar(g)
    d = prior.direction
    if pg.v.shape != d.shape:
        raise GuidanceError(f"direction_regularizer: length {pg.v.size} vs prior {d.size}")
    if pg.n <= guard:
        logger.warning("direction_regularizer: zero-norm gradient, guarded value used")
        return lambda1 * float(d.dot(d))
    diff = pg.u - d
    return lambda1 * float(diff.dot(diff))


def magnitude_regularizer(g, tau: float, lambda2: float) -> float:
    """lambda2 * (|g| - tau)^2; inf when the square overflows (Python's
    float power raises where numpy gives inf)."""
    d = _polar(g).n - float(tau)
    try:
        return lambda2 * d ** 2
    except OverflowError:
        return math.inf


def contrast_loss(g_target, g_source, lambda3: float, guard: float = 1e-12) -> float:
    """lambda3 * (1 - cos<g_target, g_source>); source side carries no gradient."""
    pt, ps = _polar(g_target), _polar(g_source)
    if pt.v.shape != ps.v.shape:
        raise GuidanceError(f"contrast_loss: length {pt.v.size} vs {ps.v.size}")
    if pt.n <= guard or ps.n <= guard:
        raise GuidanceError("contrast_loss: zero-norm gradient")
    return lambda3 * (1.0 - float(pt.v.dot(ps.v)) / (pt.n * ps.n))


def regularizer_gradient_wrt_g(g, config: GuidanceConfig, prior: DirectionPrior | None,
                               g_source=None) -> np.ndarray:
    """Closed-form d(R_dir + R_mag + R_grad)/dg at the given g.

    This is the adjoint both modes push through one Hessian-vector product;
    terms with lambda = 0 contribute nothing.
    """
    pg = _polar(g)
    n = pg.n
    w = np.zeros_like(pg.v)
    guard = config.epsilon_norm_guard
    if n <= guard:
        return w  # guarded values are locally constant
    u = pg.u
    if config.lambda1 > 0.0:
        if prior is None or not prior.initialized:
            raise GuidanceError("regularizer_gradient_wrt_g: lambda1 > 0 needs a prior")
        d = prior.direction
        w += (2.0 * config.lambda1 / n) * ((u - d) - u * (1.0 - float(u.dot(d))))
    if config.lambda2 > 0.0:
        tau = float(config.tau)
        w += 2.0 * config.lambda2 * (n - tau) * u
    if config.lambda3 > 0.0 and g_source is not None:
        ps = _polar(g_source)
        if ps.n <= guard:
            raise GuidanceError("regularizer_gradient_wrt_g: zero-norm source gradient")
        s_hat = ps.u
        cos = float(u.dot(s_hat))
        w += -config.lambda3 * (s_hat - cos * u) / n
    return w


# -- tape builders (the double-backprop reference) ----------------------------

def _dir_term(g: Tensor, d: np.ndarray, lambda1: float) -> Tensor:
    u = ad.div(g, ad.l2_norm(g))
    diff = ad.sub(u, ad.constant(d))
    return ad.scalar_mul(ad.dot(diff, diff), lambda1)


def _mag_term(g: Tensor, tau: float, lambda2: float) -> Tensor:
    dev = ad.sub(ad.l2_norm(g), ad.constant([float(tau)]))
    return ad.scalar_mul(ad.mul(dev, dev), lambda2)


def _contrast_term(g: Tensor, g_source: np.ndarray, lambda3: float) -> Tensor:
    s_hat = g_source / np.linalg.norm(g_source)
    cos = ad.div(ad.dot(g, ad.constant(s_hat)), ad.l2_norm(g))
    return ad.scalar_mul(ad.sub(ad.constant([1.0]), cos), lambda3)


def _penalty_total(base_t: Tensor, g: Tensor, config: GuidanceConfig,
                   prior: DirectionPrior, g_source: np.ndarray | None) -> Tensor:
    """base + every active penalty, built on the tape from a create_graph
    gradient ``g`` of nonzero norm."""
    total = base_t
    if config.lambda1 > 0.0:
        total = ad.add(total, _dir_term(g, prior.direction, config.lambda1))
    if config.lambda2 > 0.0:
        total = ad.add(total, _mag_term(g, float(config.tau), config.lambda2))
    if g_source is not None:
        total = ad.add(total, _contrast_term(g, _vec(g_source), config.lambda3))
    return total


# -- objective assembly ---------------------------------------------------------

def base_loss(params: Mapping[str, Tensor], spec: md.ModelSpec, batch) -> Tensor:
    """Mean softmax cross-entropy of the model on (x, labels)."""
    x, y = batch
    return md.loss(spec, params, ad.constant(x), np.asarray(y))


@dataclass
class GuidedObjective:
    """Everything the trainer needs from one objective evaluation."""

    total: Tensor                      # tape scalar; the base tensor without a penalty graph
    breakdown: LossBreakdown
    grad: Tensor                       # base gradient; a tape node only under the penalty graph
    reg_grad_wrt_g: np.ndarray | None  # closed-form dR/dg at grad; None without a penalty
    # v -> exact H·v of the base loss from grad's sweep (ad.grad_and_hvp);
    # only in exact mode with a penalty and no penalty graph.  It holds the
    # tape's records, so drop it with the tape.
    hv: Callable[[np.ndarray], Tensor] | None = None


def build_objective(params: Mapping[str, Tensor], spec: md.ModelSpec, batch,
                    config: GuidanceConfig, prior: DirectionPrior,
                    g_source: np.ndarray | None = None,
                    penalty_graph: bool = True) -> GuidedObjective:
    """Assemble L_total = L_base + R_dir + R_mag (+ R_grad with a source).

    The breakdown and w = dR/dg come from the closed forms in both modes, so
    the guided update is g + H·w.  In exact mode with ``penalty_graph`` the
    penalties are also built on the tape from a create_graph gradient, so
    differentiating ``total`` runs double backprop: the reference the H·w
    routes are checked against.  Training passes ``penalty_graph=False``
    and ``total`` is then the base loss tensor.

    Terms with lambda exactly 0 are skipped outright, never computed: with
    every term off ``total`` is the base loss tensor, ``grad`` its first-order
    gradient and ``reg_grad_wrt_g`` None.
    """
    base_t = base_loss(params, spec, batch)
    base_v = base_t.item()
    guard = config.epsilon_norm_guard

    use_contrast = config.lambda3 > 0.0 and g_source is not None
    penalized = config.lambda1 > 0.0 or config.lambda2 > 0.0 or use_contrast
    if config.lambda1 > 0.0 and not prior.initialized:
        raise GuidanceError("lambda1 > 0 requires an initialized direction prior")
    if config.lambda2 > 0.0 and config.tau == "auto":
        raise GuidanceError('tau is still "auto"; resolve it before building the objective')

    graph = penalized and penalty_graph and config.mode == "exact"
    hv = None
    if penalized and config.mode == "exact" and not graph:
        g, hv = ad.grad_and_hvp(base_t, params)   # the step's H·w comes from this sweep
    else:
        g = ad.backward(base_t, params, create_graph=graph)
    pg = _polar(g.values)
    gv, gn = pg.v, pg.n
    flags: list[str] = []
    dir_v = mag_v = con_v = 0.0
    if config.lambda1 > 0.0:
        if gn <= guard:
            flags.append("dir_zero_grad_guard")
        dir_v = direction_regularizer(pg, prior, config.lambda1, guard)
    if config.lambda2 > 0.0:
        if gn <= guard:
            # |g| has no derivative at 0; the term is frozen this step
            flags.append("mag_zero_grad_guard")
        mag_v = magnitude_regularizer(pg, float(config.tau), config.lambda2)

    cos_source = ps = None
    if g_source is not None:
        ps = _polar(g_source)
        if gn > guard and ps.n > guard:
            cos_source = clip_cosine(float(gv.dot(ps.v)) / (gn * ps.n))
        elif use_contrast:
            raise GuidanceError("contrast term: zero-norm gradient")
        if use_contrast:
            con_v = contrast_loss(pg, ps, config.lambda3, guard)

    cos_prior = None
    if prior.initialized and gn > guard:
        cos_prior = clip_cosine(float(gv.dot(prior.direction)) / gn)

    w = None
    if penalized:
        w = regularizer_gradient_wrt_g(pg, config, prior if config.lambda1 > 0.0 else None,
                                       ps if use_contrast else None)
    total_t = base_t
    if graph:
        if gn <= guard:
            # guarded terms are constants (w = 0): the gradient is g
            total_t = ad.add(base_t, ad.constant([dir_v + mag_v]))
        else:
            total_t = _penalty_total(base_t, g, config, prior,
                                     g_source if use_contrast else None)

    bd = LossBreakdown(base=base_v, dir=dir_v, mag=mag_v, contrast=con_v,
                       total=base_v + dir_v + mag_v + con_v,
                       grad_norm=gn, cos_prior=cos_prior, cos_source=cos_source,
                       flags=tuple(flags))
    return GuidedObjective(total_t, bd, g, w, hv)
