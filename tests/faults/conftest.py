"""Test-id label for the chaos suite.

Every run here takes the production batched loop (``RunResult.loop ==
"pure-batched"``), or the test-only reference loop where a test asks
for it.  There is nothing to vary, so the fixture below has one value:
it only keeps the ``[batched-pure]`` label these test ids have always
carried.  Modules whose ids say ``[batched]`` override it.
"""

import pytest


@pytest.fixture(autouse=True, params=["batched-pure"])
def loop_label(request):
    return request.param
