import time

import numpy as np
import pytest

from mbofs.heuristic import FitnessFn


def write_demo_tsv(path, n_per_class=20, n_classes=3, seed=0):
    """Tiny text corpus with class-marker words plus shared noise words."""
    rng = np.random.default_rng(seed)
    lines = []
    for c in range(n_classes):
        markers = [f"marker{c}{j}" for j in range(5)]
        for _ in range(n_per_class):
            words = [w for w in markers if rng.random() < 0.6]
            words += [f"noise{j}" for j in range(20) if rng.random() < 0.3]
            if not words:
                words = [markers[0]]
            rng.shuffle(words)
            lines.append(f"class{c}\t" + " ".join(words))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class SlowFirstBatch(FitnessFn):
    """FitnessFn whose first batch sleeps 0.2 s first."""

    slept = False

    def batch(self, masks):
        if not self.slept:
            self.slept = True
            time.sleep(0.2)
        return super().batch(masks)


@pytest.fixture
def demo_tsv(tmp_path):
    return write_demo_tsv(tmp_path / "demo.tsv")
