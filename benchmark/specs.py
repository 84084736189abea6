"""The benchmark's workloads: which feeder, which public call, which settings.

This module imports nothing from the program, so the set-up probe can load
it before it starts its clock. ``build`` receives the imported package.

Every training workload runs ``train`` and then a greedy ``execute`` of the
trained models; the oracle workload runs ``brute_force``. One round is one
such unit of work with the run's seed, repeated for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    name: str
    feeder: str
    kind: str                    # "train" or "oracle"
    episodes: int = 0
    masking: bool = True
    gamma: float | None = None   # None keeps the package default
    decay: float | None = None
    execute_steps: int = 16
    why: str = ""


SPECS = {
    s.name: s
    for s in (
        Spec(
            "train-ieee13", "ieee13", "train", episodes=100, execute_steps=16,
            why="masked 2-agent training at package defaults; step re-solves, "
                "the memo and train_step dominate",
        ),
        Spec(
            "train-ieee123-masked", "ieee123", "train", episodes=20,
            gamma=0.95, decay=0.004, execute_steps=30,
            why="masked 5-agent training; shadow solves behind validate_joint "
                "from explore resamples dominate",
        ),
        Spec(
            "train-ieee123-penalty", "ieee123", "train", episodes=40,
            masking=False, gamma=0.95, decay=0.004, execute_steps=30,
            why="unmasked 5-agent training: masking bypassed, every step "
                "solves, infeasible states included",
        ),
        Spec(
            "oracle-ieee123", "ieee123", "oracle",
            why="decomposed brute_force: 1,104 solves of distinct states, no "
                "learning and no memo",
        ),
    )
}


def build(gr, spec: Spec, seed: int):
    """The feeder and, for training, the ``TrainingConfig`` of one run."""
    feeder = gr.builtin_feeder(spec.feeder)
    if spec.kind == "oracle":
        return feeder, None
    hyper = {} if spec.gamma is None else {"gamma": spec.gamma}
    schedule = {} if spec.decay is None else {"schedule": gr.EpsilonSchedule(decay=spec.decay)}
    cfg = gr.TrainingConfig(
        episodes=spec.episodes,
        masking=spec.masking,
        hyper=gr.Hyperparameters(seed=seed, **hyper),
        **schedule,
    )
    return feeder, cfg
