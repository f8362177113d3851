import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hierfish.model import HeadOutputs, joint_scores
from hierfish.taxonomy import Taxonomy, default_taxonomy


@pytest.fixture
def tiny_taxonomy():
    # 2 groups / 3 species: X:{x1,x2}, Y:{y1}
    return Taxonomy(groups=("X", "Y"), species_by_group=(("x1", "x2"), ("y1",)))


@pytest.fixture
def toy_taxonomy():
    return Taxonomy(
        groups=("A", "B"),
        species_by_group=(("a1", "a2"), ("b1", "b2", "b3", "b4")),
    )


@pytest.fixture
def six31():
    return default_taxonomy()


def make_outputs(coarse, fine_local):
    """HeadOutputs from explicit simplices."""
    coarse = np.asarray(coarse, dtype=np.float64)
    fine_local = [np.asarray(f, dtype=np.float64) for f in fine_local]
    return HeadOutputs(
        coarse=coarse,
        fine_local=fine_local,
        joint=joint_scores(coarse, fine_local),
    )


def random_simplex(rng, n):
    v = rng.random(n) + 1e-3
    return v / v.sum()


def blas_environment() -> dict:
    """What numpy computes with: scripts/blas_kernel.py's `environment()`,
    the Python, numpy and OpenBLAS versions and the GEMM kernel."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "blas_kernel.py"
    spec = importlib.util.spec_from_file_location("blas_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.environment()
