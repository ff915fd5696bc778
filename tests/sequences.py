"""Histogram sequences that tests build directly, without ``otgrid gen``."""

import numpy as np

from otgrid.objective import Sequence, default_timestamps
from otgrid.synthetic import gaussian


def moving_gaussian_sequence(spec, waypoints, sigma: float, frames: int) -> Sequence:
    """Gaussian bump whose center walks the waypoint polyline.

    Waypoint k sits at parameter k/(len-1); centers are piecewise-linear
    in t between consecutive waypoints.
    """
    pts = np.asarray(waypoints, dtype=np.float64)
    ts = default_timestamps(frames)
    breakpoints = np.linspace(0.0, 1.0, len(pts))
    return Sequence(
        np.stack([gaussian(spec, [np.interp(t, breakpoints, p) for p in pts.T], sigma) for t in ts]),
        ts,
    )
