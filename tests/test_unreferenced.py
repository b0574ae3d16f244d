"""tools/unreferenced.py: the package has no orphan definition, and the scan
names one that a package gains."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("unreferenced", ROOT / "tools" / "unreferenced.py")
unreferenced = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreferenced)


def test_src_has_no_unreferenced_definition():
    assert unreferenced.unreferenced(ROOT / "src" / "qpkam") == []


def test_scan_names_orphans_and_skips_public_and_self_uses(tmp_path):
    (tmp_path / "__init__.py").write_text('__all__ = ["api"]\n')
    (tmp_path / "mod.py").write_text(
        "def api():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return self.unused\n\n"
        "    def unused(self):\n        return Box().used()\n")
    assert unreferenced.unreferenced(tmp_path) == ["mod.recursive", "mod.Box"]
    assert unreferenced.main([str(tmp_path)]) == 1
