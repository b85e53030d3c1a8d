import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python_sources():
    """(label, source) for every demo script, every python heredoc in a
    demo shell script, and every README python block."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "demos").glob("*.sh")):
        text = path.read_text(encoding="utf-8")
        for i, block in enumerate(re.findall(r"<<'PYEOF'\n(.*?)\nPYEOF", text, flags=re.S)):
            yield f"{path.name} heredoc {i}", block
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks, "README has no python block"
    for i, block in enumerate(blocks):
        yield f"README.md block {i}", block


def test_demo_and_readme_imports_resolve():
    # No test runs the demos, so an API deletion could otherwise break
    # them without a failure anywhere.
    missing = []
    for label, source in _python_sources():
        for node in ast.walk(ast.parse(source, filename=label)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ncelm":
                module = importlib.import_module(node.module)
                missing += [
                    f"{label}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "ncelm":
                        importlib.import_module(alias.name)
    assert missing == []
