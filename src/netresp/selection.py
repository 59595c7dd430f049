"""Soft sequential forward selection: beam search over functional domains.

One component per domain is chosen stage by stage; instead of keeping only
the single best partial set (classic forward selection), the top
`beam_width` sets survive each stage, so combinations that underperform
early but pay off once later domains join are retained. Each candidate is
scored by repeated stratified CV over the subjects it is given. One run
draws one list of `inner_repeats` fold partitions from the selection seed
(`evaluation.partitions`, the draw `evaluate` makes for its repeats) and
scores every candidate on it, so candidates are compared on the same
splits. Keeping those subjects apart from any later evaluation is the
caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import check_fields, check_indices, parallel_map

# run_experiment is not called here; it stays bound so that perfbench's
# traced run, which wraps netresp.selection.run_experiment, still finds it.
from .evaluation import cross_validate, partitions, raw_kernel, run_experiment  # noqa: F401
from .kernels import PabsKernelParams, SubspaceFactors, subspace_factors
from .svm import SvmConfig


class SelectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SsfsConfig:
    beam_width: int = 5
    inner_folds: int = 5
    inner_repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"beam_width": 1, "inner_folds": 2, "inner_repeats": 1})


@dataclass(frozen=True)
class BeamCandidate:
    stage: int
    indices: tuple[int, ...]
    score: float
    kept: bool


# trace.csv's header line, all of the file for a set that was not searched
TRACE_HEADER = "stage,candidate,score,kept\n"


@dataclass(frozen=True)
class SelectionResult:
    """Every candidate a search scored, and its last stage's beam, best first."""

    beam_trace: tuple[BeamCandidate, ...]
    final_beam: tuple[tuple[tuple[int, ...], float], ...]

    @property
    def best_set(self) -> tuple[int, ...]:
        return self.final_beam[0][0]

    @property
    def best_score(self) -> float:
        return self.final_beam[0][1]

    def top_ties(self) -> list[int]:
        """Per stage, how many candidates share that stage's top score; a
        count above 1 means the lexicographic tie-break chose among them."""
        by_stage: dict[int, list[float]] = {}
        for c in self.beam_trace:
            by_stage.setdefault(c.stage, []).append(c.score)
        return [scores.count(max(scores)) for _, scores in sorted(by_stage.items())]

    def trace_csv(self) -> str:
        lines = [TRACE_HEADER]
        for c in self.beam_trace:
            cand = "|".join(str(i) for i in c.indices)
            lines.append(f"{c.stage},{cand},{c.score!r},{int(c.kept)}\n")
        return "".join(lines)


def score_feature_set(
    features,
    labels,
    class_set,
    selected,
    kernel_params: PabsKernelParams,
    svm_cfg: SvmConfig,
    parts: list[np.ndarray],
    use_fnc: bool = False,
    factors: SubspaceFactors | None = None,
) -> float:
    """Mean inner-CV macro PR-AUC of a candidate component set over the fold
    assignments `parts`.

    The candidate's raw kernel is built once, from `factors` when given (a
    component set containing the candidate) and from its own factors
    otherwise, and one `cross_validate` call runs every partition on that
    one matrix, applying the spectrum fix per training fold. `ssfs` passes
    every candidate the one partition list it draws from the selection
    seed, so candidates are compared on the same splits. Kernels from
    factors over different component sets agree only within about 1e-14,
    so a score near a CV decision boundary can differ between them.
    """
    if not selected:
        raise SelectionError("candidate set is empty")
    selected = tuple(check_indices(selected, None, "candidate"))
    try:
        raw = raw_kernel(features, selected, kernel_params, use_fnc, factors)
        report = cross_validate(raw, labels, parts, kernel_params, svm_cfg, class_set)
    except Exception as e:
        raise SelectionError(f"candidate {list(selected)}: {e}") from e
    return float(np.mean(report.metric_values("macro_pr_auc")))


def _domain_pools(domains) -> list[list[int]]:
    """Component indices per domain, domains in first-appearance order."""
    by_domain: dict[str, list[int]] = {}
    for i, d in enumerate(domains):
        by_domain.setdefault(str(d), []).append(i)
    return list(by_domain.values())


def _score_stage(
    features, labels, class_set, candidates, kernel_params, svm_cfg, parts, use_fnc, threads
) -> list[float]:
    """Scores of one stage's candidates on the partitions `parts`, every
    kernel built from one factor set over the union of their components;
    the factors are freed on return. A subject's maps that cannot be
    factored fail the stage with the error that names the subject or its
    file, whatever the union."""
    union = sorted({c for cand in candidates for c in cand})
    factors = subspace_factors(features, union)

    def score_one(cand):
        return score_feature_set(
            features, labels, class_set, cand, kernel_params, svm_cfg, parts, use_fnc, factors
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
    """Beam search choosing one component per domain.

    Stage t extends every beam member with every component of domain t;
    domains are disjoint, so no candidate repeats a component or another
    candidate's set. All candidates are scored and the top `beam_width`
    survive, ties broken by the lexicographically smallest index list.
    With beam_width=1 the procedure is classic sequential forward selection.
    """
    labels = [str(x) for x in labels]
    if class_set is None:
        class_set = tuple(sorted(set(labels)))
    n_comp = features[0].n_components
    if len(domains) != n_comp:
        raise SelectionError(f"{len(domains)} domain labels for {n_comp} components")
    try:
        parts = partitions(labels, cfg.inner_folds, cfg.seed, cfg.inner_repeats)
    except ValueError as e:
        raise SelectionError(f"inner folds: {e}") from e

    beam: list[tuple[int, ...]] = [()]
    trace: list[BeamCandidate] = []
    for stage_idx, pool in enumerate(_domain_pools(domains)):
        candidates = [parent + (comp,) for parent in beam for comp in pool]
        scores = _score_stage(
            features, labels, class_set, candidates, kernel_params, svm_cfg, parts, use_fnc, threads
        )
        ranked = sorted(zip(candidates, scores), key=lambda cs: (-cs[1], cs[0]))
        final = tuple((cand, float(score)) for cand, score in ranked[: cfg.beam_width])
        beam = [cand for cand, _ in final]
        trace.extend(
            BeamCandidate(stage=stage_idx, indices=cand, score=score, kept=cand in beam)
            for cand, score in zip(candidates, scores)
        )

    return SelectionResult(beam_trace=tuple(trace), final_beam=final)
