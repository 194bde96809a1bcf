"""The project-wide model the whole-program pass runs over.

One parse of the tree yields, per module: the import map (local name ->
dotted target), and per class an inventory of methods summarising what
each method does to ``self``:

* ``bind_stores`` -- ``self.x = ...`` rebinds (incl. ``+=`` and
  annotated assignments), attr -> first line;
* ``mut_stores``  -- in-place mutations through an attribute
  (``self.x[i] = ...``, ``self.x.y = ...``, ``del self.x``);
* ``attr_reads``  -- every ``self.x`` read (also how bound-method and
  property references are seen);
* ``self_calls``  -- ``self.m(...)`` and ``super().m(...)`` call targets.

Classes resolve their bases across modules through the import map, so
:meth:`ClassInfo.mro_methods` gives the effective method table of a
subclass (own methods shadow base methods, bases walked left-to-right).
:func:`reach` computes call closures over that table: from a seed set of
method names, follow ``self_calls`` plus any ``attr_reads`` that name a
method/property (a restore surface that reads ``self.snapshot`` reaches
``snapshot``).

The model is deliberately flow-insensitive and alias-free -- it
over-approximates, and every pass built on it pairs findings with the
inline pragma escape hatch.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set


def module_name_for(path: str) -> str:
    """Dotted module name, walking up while ``__init__.py`` packages last."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    parent = os.path.dirname(path)
    while os.path.isfile(os.path.join(parent, "__init__.py")):
        parts.append(os.path.basename(parent))
        parent = os.path.dirname(parent)
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


def _self_root(node: ast.AST, self_name: str) -> Optional[str]:
    """If ``node`` is a ``self.attr[...].x`` chain, the first attr name."""
    attr: Optional[str] = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attr = node.attr
        node = node.value
    if isinstance(node, ast.Name) and node.id == self_name:
        return attr
    return None


@dataclass
class MethodInfo:
    """Flow-insensitive summary of one method body."""

    name: str
    owner: str                      # qualname of the defining class
    path: str
    lineno: int
    bind_stores: Dict[str, int] = field(default_factory=dict)
    mut_stores: Dict[str, int] = field(default_factory=dict)
    attr_reads: Set[str] = field(default_factory=set)
    self_calls: Set[str] = field(default_factory=set)

    @property
    def stored_attrs(self) -> Dict[str, int]:
        """All attrs this method stores to (bind or in-place), first line."""
        merged = dict(self.mut_stores)
        for attr, line in self.bind_stores.items():
            merged[attr] = min(line, merged.get(attr, line))
        return merged


class _MethodScan(ast.NodeVisitor):
    """Fill a :class:`MethodInfo` from a method body."""

    def __init__(self, info: MethodInfo, self_name: str):
        self.info = info
        self.self_name = self_name

    def _store(self, target: ast.AST, lineno: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, lineno)
            return
        if isinstance(target, ast.Starred):
            self._store(target.value, lineno)
            return
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self.self_name):
            self.info.bind_stores.setdefault(target.attr, lineno)
            return
        attr = _self_root(target, self.self_name)
        if attr is not None:
            self.info.mut_stores.setdefault(attr, lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._store(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._store(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._store(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = _self_root(target, self.self_name)
            if attr is not None:
                self.info.mut_stores.setdefault(attr, node.lineno)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name)
                and node.value.id == self.self_name
                and isinstance(node.ctx, ast.Load)):
            self.info.attr_reads.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (isinstance(receiver, ast.Name)
                    and receiver.id == self.self_name):
                self.info.self_calls.add(node.func.attr)
            elif (isinstance(receiver, ast.Call)
                    and isinstance(receiver.func, ast.Name)
                    and receiver.func.id == "super"):
                self.info.self_calls.add(node.func.attr)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # a nested class has its own `self`


@dataclass
class ClassInfo:
    name: str
    module: str
    base_exprs: List[str]           # bases as written ("ChunkedStore", "a.B")
    methods: Dict[str, MethodInfo]

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"

    def mro_methods(self, model: "ProjectModel") -> Dict[str, MethodInfo]:
        """Effective method table: own methods shadow bases, left-to-right."""
        table: Dict[str, MethodInfo] = {}
        for cls in model.mro(self):
            for name, info in cls.methods.items():
                table.setdefault(name, info)
        return table


@dataclass
class ModuleInfo:
    name: str
    path: str
    source: str
    tree: Optional[ast.Module]      # None when the source does not parse
    imports: Dict[str, str]         # local name -> dotted target
    classes: Dict[str, ClassInfo]
    syntax_error: Optional[SyntaxError] = None


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _scan_class(node: ast.ClassDef, module: str, path: str) -> ClassInfo:
    methods: Dict[str, MethodInfo] = {}
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = item.args.posonlyargs + item.args.args
        self_name = args[0].arg if args else "self"
        if any(_dotted(dec) in ("staticmethod", "classmethod")
               for dec in item.decorator_list):
            continue  # no instance state
        info = MethodInfo(name=item.name, owner=f"{module}.{node.name}",
                          path=path, lineno=item.lineno)
        _MethodScan(info, self_name).visit(item)
        methods.setdefault(item.name, info)
    bases = [b for b in (_dotted(base) for base in node.bases)
             if b is not None]
    return ClassInfo(name=node.name, module=module, base_exprs=bases,
                     methods=methods)


class ProjectModel:
    """Modules, classes, imports, and the cross-module base resolver."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -------------------------------------------------------------- build --
    def add_file(self, path: str, source: str) -> ModuleInfo:
        """Parse ``source`` (the one parse of this file) into the model."""
        name = module_name_for(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            module = ModuleInfo(name=name, path=path, source=source,
                                tree=None, imports={}, classes={},
                                syntax_error=error)
            self.modules[name] = module
            return module
        imports: Dict[str, str] = {}
        classes: Dict[str, ClassInfo] = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports[alias.asname] = alias.name
                    else:
                        root = alias.name.partition(".")[0]
                        imports[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = node.module
                if node.level:  # relative import: anchor at this package
                    package = name.split(".")[:-node.level]
                    base = ".".join(package + [node.module])
                for alias in node.names:
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(node, ast.ClassDef):
                info = _scan_class(node, name, path)
                classes[info.name] = info
                self.classes[info.qualname] = info
        module = ModuleInfo(name=name, path=path, source=source, tree=tree,
                            imports=imports, classes=classes)
        self.modules[name] = module
        return module

    # ------------------------------------------------------------ resolve --
    def resolve_class(self, module: ModuleInfo,
                      name: str) -> Optional[ClassInfo]:
        """Resolve a base/annotation name as written in ``module``."""
        if name in module.classes:
            return module.classes[name]
        target = module.imports.get(name)
        if target is not None and target in self.classes:
            return self.classes[target]
        head, _, tail = name.rpartition(".")
        if head:
            prefix = module.imports.get(head, head)
            qualified = f"{prefix}.{tail}"
            if qualified in self.classes:
                return self.classes[qualified]
        if name in self.classes:
            return self.classes[name]
        return None

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Approximate linearisation: depth-first, left-to-right, deduped."""
        order: List[ClassInfo] = []
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            order.append(current)
            module = self.modules.get(current.module)
            if module is None:
                continue
            bases = [self.resolve_class(module, base)
                     for base in current.base_exprs]
            stack = [b for b in bases if b is not None] + stack
        return order


def reach(table: Dict[str, MethodInfo],
          seeds: Iterable[str]) -> Set[str]:
    """Method names reachable from ``seeds`` through the method table.

    Edges: ``self_calls``, plus ``attr_reads`` naming a method/property
    (how ``getattr(self, "snapshot")``-free code still reaches a
    property or a bound-method reference).
    """
    names = set(table)
    seen: Set[str] = set()
    work = [s for s in sorted(set(seeds)) if s in table]
    while work:
        current = work.pop()
        if current in seen:
            continue
        seen.add(current)
        info = table[current]
        for nxt in sorted((info.self_calls | info.attr_reads) & names):
            if nxt not in seen:
                work.append(nxt)
    return seen
