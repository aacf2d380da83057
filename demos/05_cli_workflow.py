"""
The full command-line workflow in one sitting
=============================================

Everything the package does is reachable through `catagg <subcommand>`.
This script drives the real CLI entry point through a complete cycle in a
temporary directory: generate a dataset, train briefly, resume from the
checkpoint, score against ground truth, and export predicted flow fields.
"""

import tempfile
from pathlib import Path

from catagg.cli import main

# the directory and everything in it is removed when the block ends
with tempfile.TemporaryDirectory(prefix="catagg_demo_") as tmp:
    root = Path(tmp)
    print(f"working under {root}\n")

    # a fast configuration: pyramidal model on an 8x8 grid
    common = ["--set", "model=catspp", "--set", "mode=parallel",
              "--set", "grid.h=8", "--set", "grid.w=8"]

    # 1. six reproducible pairs; the manifest records seeds + generation settings
    assert main(["gen-data", "--out", str(root / "data"), "--pairs", "6",
                 "--seed", "5", *common]) == 0

    # 2. short training run; lr groups for aggregator and backbone are separate
    assert main(["train", "--data", str(root / "data/manifest.txt"),
                 "--out", str(root / "run.ckpt"), *common,
                 "--set", "train.steps=40",
                 "--set", "train.lr_aggregator=2e-3",
                 "--set", "train.lr_backbone=2e-4"]) == 0

    # 3. resuming doubles the budget and continues bit-exactly from step 40
    assert main(["train", "--data", str(root / "data/manifest.txt"),
                 "--resume", str(root / "run.ckpt"),
                 "--out", str(root / "run80.ckpt"), *common,
                 "--set", "train.steps=80",
                 "--set", "train.lr_aggregator=2e-3",
                 "--set", "train.lr_backbone=2e-4"]) == 0

    # 4. score the trained checkpoint; the report carries per-pair rows plus
    #    winner-takes-all baseline columns for the same features
    assert main(["eval", "--data", str(root / "data/manifest.txt"),
                 "--checkpoint", str(root / "run80.ckpt"),
                 "--report", str(root / "report.txt"), *common]) == 0

    print("\nreport tail:")
    for line in (root / "report.txt").read_text().splitlines()[-3:]:
        print("  " + line)

    # 5. export per-pair predicted flow tensors for external tooling
    assert main(["infer", "--data", str(root / "data/manifest.txt"),
                 "--checkpoint", str(root / "run80.ckpt"),
                 "--out", str(root / "flows"), *common]) == 0
    print("\nexported:", sorted(p.name for p in (root / "flows").iterdir())[:4], "...")
