"""The paper's hybrid rule (DESIGN.md section 1): PTI AND NTI.

Joza runs both taint inferences on every query, and a query is safe iff
*both* deem it safe.  Each half is its own spec (``pti_spec`` over the
application's fragments, ``nti_spec`` over the request's raw inputs), so
this file is the conjunction and nothing more; it shares no code with the
implementation.

Python 3.9 compatible: tier-1 CI runs 3.9.
"""

from tests.reference.nti_spec import nti_spec
from tests.reference.pti_spec import pti_spec


def hybrid_spec(query, fragments, inputs, threshold, strict=False):
    """``(safe, pti, nti)``: the AND, plus each technique's own spec result.

    ``pti`` is ``pti_spec``'s ``(safe, detections)`` and ``nti`` is
    ``nti_spec``'s ``(safe, markings, detections)``.
    """
    pti = pti_spec(query, fragments, strict)
    nti = nti_spec(query, inputs, threshold)
    return pti[0] and nti[0], pti, nti
