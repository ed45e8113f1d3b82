"""Layering: the modules under core load no codec, import at the top, and
only `firstparty` speaks the /fp protocol; one module owns each rule that
writers and readers share; and every hook point the benchmark patches
exists and is called."""

import ast
import dataclasses
import importlib.util
import os
import pathlib
import subprocess
import sys
from collections import Counter

import r2o
from r2o import core, firstparty
from r2o.filter import FilterConfig
from r2o.firstparty import (FirstPartyService, HttpFirstPartyClient,
                            serve_firstparty)
from r2o.store import ContentItem, HttpStoreClient, MemoryStore, serve_store

PACKAGE = pathlib.Path(r2o.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_cache_store_and_firstparty_load_no_numpy():
    # the codec loads numpy in over 0.1 s; the locator rule needs none
    code = ("import sys, r2o.cache, r2o.store, r2o.firstparty; "
            "print('numpy' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


def _imports(tree):
    """(module, function-level?) for every import in a module's tree."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.Import):
            found.extend((alias.name, in_function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append(("." * node.level + (node.module or ""),
                          in_function))
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


def test_http_imports_no_r2o_module():
    tree = ast.parse((PACKAGE / "_http.py").read_text(encoding="utf-8"))
    assert [name for name, _ in _imports(tree)
            if name.startswith((".", "r2o"))] == []


def test_the_only_function_level_import_is_https_ssl():
    # ssl takes 7-11 ms to load and only an https client needs it
    inside = [(str(path.relative_to(PACKAGE)), name)
              for path in sorted(PACKAGE.rglob("*.py"))
              for name, in_function in _imports(
                  ast.parse(path.read_text(encoding="utf-8")))
              if in_function]
    assert inside == [("_http.py", "ssl")]


def test_only_firstparty_spells_the_album_routes():
    # the /fp protocol, its album and photo routes alike, is written and
    # read in one module
    holders = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and ("/fp/albums" in node.value or "/fp/photos" in node.value))
    assert set(holders) == {"firstparty.py"}


def test_core_reexports_the_first_party_client_class():
    # a patch on either name reaches the client that callers build
    assert core.HttpFirstPartyClient is firstparty.HttpFirstPartyClient


def test_only_store_spells_the_id_pattern():
    # every host mints, routes and accepts the ids that `store` defines
    holders = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "[0-9a-f]" in node.value)
    assert set(holders) == {"store.py"}


def test_the_stand_in_edges_are_constants_not_filter_settings():
    # a writer and every reader share `filter.MIN_EDGE`/`MAX_EDGE`
    fields = [f.name for f in dataclasses.fields(FilterConfig)]
    assert fields == ["path_prefixes"]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_then_read(service, backing):
    """One write and one page read over HTTP, through served instances."""
    with serve_store(("127.0.0.1", 0), backing) as st, \
            serve_firstparty(("127.0.0.1", 0), service) as fp_srv:
        offsite = HttpStoreClient(st.base_url)
        fp = HttpFirstPartyClient(fp_srv.base_url)
        fetcher = core.HttpFetcher()
        try:
            album = fp.create_album("hooks")
            core.write_path(ContentItem(b"photo", "image/png"), "c", album,
                            offsite, fp)
            core.resolve_page(fp.page_url(album), fetcher)
        finally:
            offsite.close()
            fp.close()
            fetcher.close()


def test_the_tracer_spans_the_store_upload_of_a_write():
    # perfbench/tracing.py swaps each hook for a span-recording wrapper
    # through `vars(owner)`, so install fails on a hook that is gone; and a
    # write over HTTP must go through HttpStoreClient.upload, or a traced
    # run reports an empty store.upload span
    tracing = _perfbench("tracing")
    tracer = tracing.Tracer()
    layer = tracing.LayerTracer(tracer)
    try:
        layer.install()
        _write_then_read(FirstPartyService(response_delay_ms=0),
                         MemoryStore())
    finally:
        layer.uninstall()
    names = {sid: name for sid, name, *_ in tracer.spans}
    parents = Counter((name, names.get(parent))
                      for _, name, _, _, parent, *_ in tracer.spans)
    assert parents[("store.upload", "core.write_path")] == 1
    assert parents[("codec.encode_qr", "store.upload")] == 1
    assert parents[("codec.to_png", "store.upload")] == 1
    assert parents[("firstparty.upload_photo", "core.write_path")] == 1
    assert parents[("core.read_path", "core.resolve_page")] == 1


def test_the_host_wrappers_see_every_served_call():
    # perfbench/hosts.py wraps methods on the instances it serves; each
    # must exist there and be what the servers call
    tree = ast.parse((PERFBENCH / "hosts.py").read_text(encoding="utf-8"))
    wrapped = [(node.targets[0].value.id, node.targets[0].attr)
               for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.targets[0], ast.Attribute)
               and isinstance(node.value, ast.Call)
               and ast.unparse(node.value.func) == "log.wrap"]
    assert len(wrapped) == 5
    owners = {"service": FirstPartyService(response_delay_ms=0),
              "backing": MemoryStore()}
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in wrapped:
        target = owners[owner]
        setattr(target, attr, counting((owner, attr), getattr(target, attr)))
    _write_then_read(owners["service"], owners["backing"])
    assert {key: calls[key] for key in wrapped} == \
        {key: 1 for key in wrapped}
