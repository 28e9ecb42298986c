"""The paper's algorithm suite: CycleRank plus six baselines."""
