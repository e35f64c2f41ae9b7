"""The README's Python examples run as one doctest session.

The ```python blocks are joined in order, so a later block sees the names
an earlier one defined; the closing fences are left out, or doctest would
read them as expected output.
"""

import doctest
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def test_readme_python_examples_pass():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            re.MULTILINE | re.DOTALL)
    test = doctest.DocTestParser().get_doctest(
        "".join(blocks), {}, "README.md", README, 0)
    assert len(blocks) >= 2 and test.examples
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.failed == 0, f"{result.failed} README example(s) failed"
