"""Exact-arithmetic polar classification of loop Lie algebra duals."""

from .cyclo import CycloNumber, zeta
from .polar import PolarDatum, classify, epipelagic_datum, homogeneous_datum
from .rootdata import RootDatum, WeylElement, build
from .tails import LaurentWindow, Tail
from .tori import TorusClass, list_torus_classes, regular_numbers
from .yuseq import YuLadder, extract

__version__ = "0.1.0"
