"""
mmdepth: depth maps from a beam-swept millimeter-wave link.

A phased-array transceiver sweeps a grid-matched beam codebook across its
field of view, matched-filters one preamble per beam against the backscatter,
and turns the per-beam delays into range and depth maps scored against
ray-cast ground truth. The package is organized as a library of small numpy
stages plus a pipeline that chains them:

    codebook    virtual-sensor beam grid, steering vectors, tapers
    channel     radar link budget, pulse shaping, per-beam channel taps
    scene       planar-facet scenes, builtin scenes, ray casting, backscatter
                extraction
    waveform    Golay / PN sensing preambles, record synthesis
    estimator   matched filter, cancellation, joint selection, refinement
    metrics     error reports and the range estimation bound
    io          PGM / CSV map artifacts
    pipeline    scenario configs, end-to-end runs, sweeps

The package root re-exports each of these modules' __all__. The command
line, mmdepth.cli, is not imported here: `python -m mmdepth.cli` warns when
the package has already imported the module it is asked to run.
"""

from . import channel, codebook, estimator, io, metrics, pipeline, scene, waveform
from .channel import *  # noqa: F403  each module's __all__ is its public API
from .codebook import *  # noqa: F403
from .estimator import *  # noqa: F403
from .io import *  # noqa: F403
from .metrics import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .scene import *  # noqa: F403
from .waveform import *  # noqa: F403

__all__ = [
    name
    for module in (channel, codebook, estimator, io, metrics, pipeline, scene, waveform)
    for name in module.__all__
]

__version__ = "0.1.0"
