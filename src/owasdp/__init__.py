"""Ordered weighted averages of rational functions by sparse moment-SDP
relaxations, with a continuous single-facility location front-end."""

__version__ = "0.1.0"

from .location import (
    VARIANTS,
    InvalidNormError,
    LocationInstance,
    build_lifted,
    lifted_witness,
    random_instance,
)

__all__ = [
    "__version__",
    "VARIANTS",
    "InvalidNormError",
    "LocationInstance",
    "build_lifted",
    "lifted_witness",
    "random_instance",
]
