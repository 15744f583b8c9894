"""The Python blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    # the quick tour's commented values
    assert namespace["v"].admissible is False
    assert sum(namespace["counts"].values()) == 1000
    assert namespace["report"].max_marginal_residual <= 1e-12
    assert namespace["rep"].certified
