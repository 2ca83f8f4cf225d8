"""The pytest fixtures that several test modules use."""

import pytest

from fixtures import E3_PLUMB, FIG, FIG_FULL, TWO_CUSP_GERM, TWO_CUSP_PLUMB


@pytest.fixture
def work(tmp_path):
    """A directory holding the input files the CLI tests read."""
    (tmp_path / "e3.plumb").write_text(E3_PLUMB)
    (tmp_path / "twocusp.germ").write_text(TWO_CUSP_GERM)
    (tmp_path / "twocusp.plumb").write_text(TWO_CUSP_PLUMB)
    (tmp_path / "fig.wire").write_text(FIG)
    (tmp_path / "figfull.wire").write_text(FIG_FULL)
    return tmp_path
