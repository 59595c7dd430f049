"""Soft sequential forward selection: beam search over functional domains.

One component per domain is chosen stage by stage; instead of keeping only
the single best partial set (classic forward selection), the top
`beam_width` sets survive each stage, so combinations that underperform
early but pay off once later domains join are retained. Each candidate is
scored by repeated stratified CV over the subjects it is given; keeping
those subjects apart from any later evaluation is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_seed, parallel_map

# run_experiment is not called here; it stays bound so that perfbench's
# traced run, which wraps netresp.selection.run_experiment, still finds it.
from .evaluation import cross_validate, partitions, raw_kernel, run_experiment  # noqa: F401
from .kernels import PabsKernelParams, SubspaceFactors, subspace_factors
from .svm import SvmConfig

SCORERS = ("macro_pr_auc", "macro_f1")


class SelectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SsfsConfig:
    beam_width: int = 5
    scorer: str = "macro_pr_auc"
    inner_folds: int = 5
    inner_repeats: int = 10
    domain_order: tuple[str, ...] | None = None
    extra_passes: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.inner_folds < 2:
            raise ValueError("inner_folds must be at least 2")
        if self.inner_repeats < 1:
            raise ValueError("inner_repeats must be at least 1")
        if self.scorer not in SCORERS:
            raise ValueError(f"scorer must be one of {SCORERS}, got {self.scorer!r}")
        if self.extra_passes < 0:
            raise ValueError("extra_passes must be non-negative")
        if self.domain_order is not None:
            object.__setattr__(self, "domain_order", tuple(self.domain_order))


@dataclass(frozen=True)
class BeamCandidate:
    stage: int
    indices: tuple[int, ...]
    score: float
    kept: bool


@dataclass(frozen=True)
class SelectionResult:
    best_set: tuple[int, ...]
    best_score: float
    beam_trace: tuple[BeamCandidate, ...]
    final_beam: tuple[tuple[tuple[int, ...], float], ...]

    def top_ties(self) -> list[int]:
        """Per stage, how many candidates share that stage's top score; a
        count above 1 means the lexicographic tie-break chose among them."""
        by_stage: dict[int, list[float]] = {}
        for c in self.beam_trace:
            by_stage.setdefault(c.stage, []).append(c.score)
        return [scores.count(max(scores)) for _, scores in sorted(by_stage.items())]

    def trace_csv(self) -> str:
        lines = ["stage,candidate,score,kept"]
        for c in self.beam_trace:
            cand = "|".join(str(i) for i in c.indices)
            lines.append(f"{c.stage},{cand},{c.score!r},{int(c.kept)}")
        return "\n".join(lines) + "\n"


def score_feature_set(
    features,
    labels,
    class_set,
    selected,
    kernel_params: PabsKernelParams,
    svm_cfg: SvmConfig,
    cfg: SsfsConfig,
    seed: int,
    use_fnc: bool = False,
    factors: SubspaceFactors | None = None,
) -> float:
    """Mean inner-CV score of a candidate component set.

    The candidate's raw kernel is built once, from `factors` when given (a
    component set containing the candidate) and from its own factors
    otherwise; each of the `inner_repeats` repeats draws its fold partition
    from a seed derived from `seed`, and one `cross_validate` call runs
    every repeat on that one matrix, applying the spectrum fix per training
    fold. The same (candidate, seed, factor components) triple therefore
    scores bit-identically wherever it is evaluated; kernels from factors
    over different component sets agree only within about 1e-14, so a
    score near a CV decision boundary can differ between them.
    """
    selected = tuple(int(i) for i in selected)
    if not selected:
        raise SelectionError("candidate set is empty")
    try:
        raw = raw_kernel(features, selected, kernel_params, use_fnc, factors)
        parts = [
            partitions(labels, cfg.inner_folds, derive_seed(seed, "inner", rep), 1)[0]
            for rep in range(cfg.inner_repeats)
        ]
        report = cross_validate(raw, labels, parts, kernel_params, svm_cfg, class_set)
    except Exception as e:
        raise SelectionError(f"candidate {list(selected)}: {e}") from e
    # one mean per repeat over its cells, then their mean, summed in this order
    values, repeat = report.metric_values(cfg.scorer), report.cells[:, 1]
    return float(np.mean([np.mean(values[repeat == rep]) for rep in range(cfg.inner_repeats)]))


def _domain_pools(domains, order) -> list[tuple[str, list[int]]]:
    by_domain: dict[str, list[int]] = {}
    for i, d in enumerate(domains):
        by_domain.setdefault(str(d), []).append(i)
    if order is None:
        order = tuple(by_domain)  # first-appearance order
    missing = [d for d in order if d not in by_domain]
    if missing:
        raise SelectionError(f"domains without components: {missing}")
    return [(d, by_domain[d]) for d in order]


def _score_stage(
    features, labels, class_set, candidates, kernel_params, svm_cfg, cfg, use_fnc, threads
) -> list[float]:
    """Scores of one stage's candidates, every kernel built from one factor
    set over the union of their components; the factors are freed on return."""
    union = sorted({c for cand in candidates for c in cand})
    try:
        factors = subspace_factors(features, union)
    except ValueError as e:
        raise SelectionError(f"components {union}: {e}") from e

    def score_one(cand):
        cand_seed = derive_seed(cfg.seed, "candidate", tuple(sorted(cand)))
        return score_feature_set(
            features,
            labels,
            class_set,
            cand,
            kernel_params,
            svm_cfg,
            cfg,
            cand_seed,
            use_fnc=use_fnc,
            factors=factors,
        )

    return parallel_map(score_one, candidates, threads)


def ssfs(
    features,
    labels,
    domains,
    cfg: SsfsConfig,
    kernel_params: PabsKernelParams,
    svm_cfg: SvmConfig,
    class_set=None,
    use_fnc: bool = False,
    threads: int = 1,
) -> SelectionResult:
    """Beam search choosing one component per domain (plus optional extras).

    Stage t extends every beam member with every unused component of
    domain t; all candidates are scored and the top `beam_width` survive,
    ties broken by the lexicographically smallest index list. Each
    configured extra pass appends one more stage whose candidate pool is
    every component not already in the set, regardless of domain (this is
    how a 7th component can emerge from 6 domains). With beam_width=1 the
    procedure is classic sequential forward selection.
    """
    labels = [str(x) for x in labels]
    if class_set is None:
        class_set = tuple(sorted(set(labels)))
    n_comp = features[0].n_components
    if len(domains) != n_comp:
        raise SelectionError(f"{len(domains)} domain labels for {n_comp} components")
    pools = _domain_pools(domains, cfg.domain_order)
    stages: list[list[int]] = [pool for _, pool in pools]
    for _ in range(cfg.extra_passes):
        stages.append(list(range(n_comp)))

    beam: list[tuple[int, ...]] = [()]
    trace: list[BeamCandidate] = []
    final: list[tuple[tuple[int, ...], float]] = []
    for stage_idx, pool in enumerate(stages):
        seen: set[tuple[int, ...]] = set()
        candidates: list[tuple[int, ...]] = []
        for parent in beam:
            for comp in pool:
                if comp in parent:
                    continue
                cand = parent + (comp,)
                key = tuple(sorted(cand))
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(cand)
        if not candidates:
            raise SelectionError(f"stage {stage_idx}: no candidates to evaluate")

        scores = _score_stage(
            features, labels, class_set, candidates, kernel_params, svm_cfg, cfg, use_fnc, threads
        )
        ranked = sorted(
            zip(candidates, scores), key=lambda cs: (-cs[1], cs[0])
        )
        kept = {cand for cand, _ in ranked[: cfg.beam_width]}
        trace.extend(
            BeamCandidate(
                stage=stage_idx, indices=cand, score=score, kept=cand in kept
            )
            for cand, score in zip(candidates, scores)
        )
        beam = [cand for cand, _ in ranked[: cfg.beam_width]]
        final = ranked[: cfg.beam_width]

    best_set, best_score = final[0]
    return SelectionResult(
        best_set=best_set,
        best_score=float(best_score),
        beam_trace=tuple(trace),
        final_beam=tuple((cand, float(s)) for cand, s in final),
    )
