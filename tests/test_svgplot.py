"""SVG chart writer: text escaping and import weight."""

import os
import subprocess
import sys
from xml.sax.saxutils import escape as sax_escape

from hypothesis import given
from hypothesis import strategies as st

from annealdp import svgplot


@given(st.text(alphabet=st.sampled_from("&<>;amplgt \"'xé")) | st.text())
def test_escape_matches_saxutils(text):
    assert svgplot.escape(text) == sax_escape(text)


def test_import_skips_xml_sax():
    # xml.sax.saxutils pulls in urllib.request, http.client and email
    code = ("import sys, annealdp.svgplot; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request', 'email') if m in sys.modules))")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(svgplot.__file__)))
    env = {**os.environ, "PYTHONPATH": package_root}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
