"""Command-line surface: exits, config handling, subcommand flows."""

import dataclasses
import pathlib
import re
import runpy
import sys
from contextlib import closing

import numpy as np
import pytest

from r2o import bench, cli, codec, firstparty, store
from r2o.cache import MAP_HEADER, CacheConfig, MappingsCache, MappingEntry
from r2o.codec.png import write_png
from r2o.filter import FilterConfig
from r2o.firstparty import FirstPartyService, serve_firstparty
from r2o.store import (
    LATENCY_PRESETS,
    FilesystemStore,
    HttpStoreClient,
    MemoryStore,
    serve_store,
)

LOOPBACK = ("127.0.0.1", 0)


@pytest.fixture
def served_world(tmp_path):
    """Live store + firstparty servers and a config file naming both."""
    store_server = serve_store(LOOPBACK, MemoryStore(name="lab"))
    fp_server = serve_firstparty(LOOPBACK, FirstPartyService(
        response_delay_ms=0.0))
    config = tmp_path / "r2o.ini"
    config.write_text(
        "[r2o]\n"
        f"firstparty_url = {fp_server.base_url}\n"
        "[provider:lab]\n"
        f"base_url = {store_server.base_url}\n")
    try:
        yield {"config": str(config), "store": store_server,
               "firstparty": fp_server, "tmp": tmp_path}
    finally:
        store_server.shutdown()
        fp_server.shutdown()


def png_file(tmp_path, seed=0, edge=96):
    gen = np.random.default_rng(seed)
    data = write_png(gen.integers(0, 256, size=(edge, edge), dtype=np.uint8))
    path = tmp_path / f"photo{seed}.png"
    path.write_bytes(data)
    return path, data


# -- exit taxonomy -----------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.run(["no-such-verb"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_no_arguments_is_usage_error(capsys):
    assert cli.run([]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_unknown_provider_names_the_candidates(tmp_path, capsys):
    path, _ = png_file(tmp_path)
    config = tmp_path / "lab.ini"
    config.write_text(
        "[provider:lab]\nbase_url = http://127.0.0.1:9/v1/objects\n")
    code = cli.run(["--config", str(config), "upload", "--provider",
                    "nosuch", "--file", str(path), "--album", "a1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "nosuch" in err
    assert "known: lab" in err  # the configured names are listed


def test_upload_to_an_unconfigured_preset_posts_nothing(tmp_path, capsys):
    # a preset is an in-process store no reader could fetch from
    created = []

    class Recording(FirstPartyService):
        def create_album(self, title):
            created.append(title)
            return super().create_album(title)

    path, _ = png_file(tmp_path)
    config = tmp_path / "fp.ini"
    with serve_firstparty(LOOPBACK, Recording(response_delay_ms=0.0)) as fp:
        config.write_text(f"[r2o]\nfirstparty_url = {fp.base_url}\n")
        code = cli.run(["--config", str(config), "upload", "--provider",
                        "imgur", "--file", str(path)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "unknown provider 'imgur'; known: (none)" in err
    assert created == []


def test_encode_rejects_bad_scheme(tmp_path, capsys):
    out = tmp_path / "sym.png"
    code = cli.run(["encode", "ftp://a.example/x", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    capsys.readouterr()


def test_decode_missing_file_is_operational(tmp_path, capsys):
    code = cli.run(["decode", "--file", str(tmp_path / "absent.png")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_OPERATIONAL
    assert err.startswith("r2o: ")


def test_decode_non_symbol_is_operational(tmp_path, capsys):
    path, _ = png_file(tmp_path, seed=8)
    assert cli.run(["decode", "--file", str(path)]) == cli.EXIT_OPERATIONAL
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    code = cli.run(["--config", str(tmp_path / "nope.ini"),
                    "cache", "stats"])
    assert code == cli.EXIT_USAGE
    capsys.readouterr()


# -- encode / decode ---------------------------------------------------------

def test_encode_decode_round_trip(tmp_path, capsys):
    out = tmp_path / "sym.png"
    url = "http://cdn.example/v1/objects/0123456789abcdef"
    assert cli.run(["encode", url, "--out", str(out),
                    "--target-size", "512"]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "512x512 px" in stdout

    assert cli.run(["decode", "--file", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == url


@pytest.mark.parametrize("size", ["0", "10"])
def test_encode_refuses_a_target_size_that_holds_no_symbol(tmp_path, capsys,
                                                           size):
    out = tmp_path / "sym.png"
    assert cli.run(["encode", "http://a.example/x", "--out", str(out),
                    "--target-size", size]) == cli.EXIT_USAGE
    assert "cannot hold" in capsys.readouterr().err
    assert not out.exists()


def test_encode_ec_level_choices(tmp_path, capsys):
    out = tmp_path / "sym.png"
    assert cli.run(["encode", "http://a.example/x", "--out", str(out),
                    "--ec-level", "H"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.run(["encode", "http://a.example/x", "--out", str(out),
                    "--ec-level", "Z"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_an_unknown_ec_level_in_the_config_is_a_usage_error(tmp_path,
                                                           capsys):
    config = tmp_path / "qr.ini"
    config.write_text("[qr]\nec_level = X\n")
    out = tmp_path / "sym.png"
    assert cli.run(["--config", str(config), "encode", "http://a.example/x",
                    "--out", str(out)]) == cli.EXIT_USAGE
    assert "unknown EC level 'X'" in capsys.readouterr().err
    assert not out.exists()


def test_an_unknown_ec_level_uploads_nothing(served_world, tmp_path, capsys):
    config = pathlib.Path(served_world["config"])
    config.write_text(config.read_text() + "[qr]\nec_level = X\n")
    photo, _ = png_file(tmp_path)
    uploads = []
    backing = served_world["store"].backing
    real_upload = backing.upload
    backing.upload = lambda item: uploads.append(item) or real_upload(item)
    assert cli.run(["--config", str(config), "upload", "--provider", "lab",
                    "--file", str(photo)]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert uploads == []


# -- config loading ----------------------------------------------------------

def test_load_config_sections(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(
        "[r2o]\n"
        "firstparty_url = http://fp.example:9\n"
        "[filter]\n"
        "path_prefixes = /fp/photos/, /mirror/\n"
        "[cache]\n"
        "n_frequent = 7\n"
        "m_recent = 9\n"
        "[qr]\n"
        "ec_level = Q\n"
        "target_size = 256\n"
        "[provider:lab]\n"
        "base_url = http://127.0.0.1:9/v1/objects/\n")
    cfg = cli.load_config(str(path))
    assert cfg.firstparty_url == "http://fp.example:9"
    assert cfg.filter.path_prefixes == ("/fp/photos/", "/mirror/")
    assert cfg.cache.n_frequent == 7 and cfg.cache.m_recent == 9
    assert cfg.qr.ec_level == "Q" and cfg.qr.target_size == 256
    assert cfg.providers == {"lab": "http://127.0.0.1:9/v1/objects"}


def test_provider_sections_build_their_stores(tmp_path):
    path = tmp_path / "providers.ini"
    path.write_text(
        "[provider:lab]\nbase_url = http://127.0.0.1:9/v1/objects/\n"
        "[provider:cdn]\nbase_url = https://cdn.example/v1/objects\n")
    cfg = cli.load_config(str(path))
    built = {name: cfg.provider(name) for name in ("lab", "cdn")}
    try:
        got = {name: (type(s), s.name, s.base_url, s.simulated_latency)
               for name, s in built.items()}
    finally:
        for client in built.values():
            client.close()
    # an HTTP client carries no simulated latency of its own
    assert got == {
        "lab": (HttpStoreClient, "lab", "http://127.0.0.1:9/v1/objects",
                None),
        "cdn": (HttpStoreClient, "cdn", "https://cdn.example/v1/objects",
                None),
    }


def test_load_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[cache]\nn_frequent = many\n")
    with pytest.raises(cli.UsageError):
        cli.load_config(str(path))

    path.write_text("[provider:x]\n")
    with pytest.raises(cli.UsageError, match="provider 'x' needs base_url"):
        cli.load_config(str(path))

    path.write_text("[provider:x]\nbase_url = ftp://x.example/v1/objects\n")
    with pytest.raises(cli.UsageError, match="bad config value base_url = "
                                             "'ftp://x.example/v1/objects'"):
        cli.load_config(str(path))

    path.write_text('[provider:x]\nbase_url = http://x.example/"a\n')
    with pytest.raises(cli.UsageError, match="bad config value base_url"):
        cli.load_config(str(path))


@pytest.mark.parametrize("text, named", [
    ("[r2o]\nparallelism = 3\n", "'parallelism' in [r2o]"),
    ("[qr]\nmodule_scale = 2\n", "'module_scale' in [qr]"),
    ("[qr]\nmin_version = 6\n", "'min_version' in [qr]"),
    ("[filter]\ncaption_marker = mine:1\n", "'caption_marker' in [filter]"),
    ("[filter]\nrequire_square = no\n", "'require_square' in [filter]"),
    ("[filter]\nexcluded_subtypes = bmp\n",
     "'excluded_subtypes' in [filter]"),
    ("[filter]\nmin_edge = 32\n", "'min_edge' in [filter]"),
    ("[filter]\nmax_edge = 2048\n", "'max_edge' in [filter]"),
    ("[qrr]\nec_level = H\n", "[qrr]"),
    ("[provider:lab]\nkind = memory\nlatancy = 4\n",
     "'kind' in [provider:lab]"),
    ("[provider:lab]\nbase_url = http://127.0.0.1:9/v1/objects\n"
     "latancy = 4\n", "'latancy' in [provider:lab]"),
])
def test_load_config_names_unknown_sections_and_keys(tmp_path, text, named):
    path = tmp_path / "unknown.ini"
    path.write_text(text)
    with pytest.raises(cli.UsageError, match=re.escape(named)):
        cli.load_config(str(path))


@pytest.mark.parametrize("section, config", [
    ("qr", codec.QrConfig), ("filter", FilterConfig), ("cache", CacheConfig)])
def test_config_fields_are_exactly_the_ini_keys(section, config):
    # a field the INI file cannot set is a knob that only tests turn
    fields = {f.name for f in dataclasses.fields(config)}
    assert set(cli._SECTIONS[section]) == fields


def test_load_config_reads_provider_sections(tmp_path):
    path = tmp_path / "providers.ini"
    path.write_text("[provider:lab]\n"
                    "base_url = http://127.0.0.1:9/v1/objects\n"
                    "[provider:slow]\nbase_url = http://127.0.0.1:10/v1/o\n")
    cfg = cli.load_config(str(path))
    assert cfg.providers == {"lab": "http://127.0.0.1:9/v1/objects",
                             "slow": "http://127.0.0.1:10/v1/o"}


@pytest.mark.parametrize("key", ["kind = memory", "latency = 4",
                                 "root = objects"])
def test_provider_sections_take_only_base_url(tmp_path, capsys, key):
    # a provider is the base URL of a served store; how that store keeps
    # its objects, and how slowly, is set where it is served
    path = tmp_path / "provider.ini"
    path.write_text("[provider:x]\n"
                    f"base_url = http://127.0.0.1:9/v1/objects\n{key}\n")
    assert cli.run(["--config", str(path), "cache", "stats", "--cache",
                    str(tmp_path / "none.tsv")]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    name = key.split(" ")[0]
    assert f"unknown config key '{name}' in [provider:x]" in err


@pytest.mark.parametrize("section", [
    "[provider:x]\n",
    "[provider:x]\nbase_url = ftp://x.example/v1/objects\n"])
def test_provider_without_an_http_base_url_exits_2(tmp_path, capsys,
                                                    section):
    path = tmp_path / "provider.ini"
    path.write_text(section)
    assert cli.run(["--config", str(path), "cache", "stats", "--cache",
                    str(tmp_path / "none.tsv")]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("r2o: ") and "base_url" in err


def test_removed_parallelism_flag_is_a_usage_error(capsys):
    assert cli.run(["--parallelism", "3", "cache", "stats", "--cache",
                    "none.tsv"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_default_providers_follow_presets():
    # no provider is configured by default; `bench` measures the presets
    cfg = cli.Config()
    assert cfg.providers == {}
    with pytest.raises(cli.UsageError, match=r"known: \(none\)"):
        cfg.provider("flickr")
    assert [(s.name, s.simulated_latency) for s in bench._preset_stores()] \
        == [(name, float(ms)) for name, ms in LATENCY_PRESETS.items()]


def test_parse_bind():
    assert cli._parse_bind("0.0.0.0:8600") == ("0.0.0.0", 8600)
    with pytest.raises(cli.UsageError):
        cli._parse_bind("8600")
    with pytest.raises(cli.UsageError):
        cli._parse_bind("host:eight")


# -- cache subcommands -------------------------------------------------------

def seeded_cache_file(tmp_path, count=3):
    cache = MappingsCache()
    for i in range(count):
        cache.record_resolved(MappingEntry(
            pseudo_locator=f"http://fp.example/fp/photos/p{i}.png",
            offsite_locator=f"http://off.example/v1/objects/{i:016x}"))
    path = tmp_path / "state.tsv"
    path.write_bytes(cache.export_mappings())
    return path


def test_cache_export_import_stats(tmp_path, capsys):
    state = seeded_cache_file(tmp_path)
    out = tmp_path / "dump.tsv"
    assert cli.run(["cache", "export", "--cache", str(state),
                    "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    blob = out.read_bytes()
    assert blob.startswith(MAP_HEADER.encode())
    assert blob.count(b"\n") == 4  # header + three entries

    fresh = tmp_path / "fresh.tsv"
    assert cli.run(["cache", "import", "--cache", str(fresh),
                    "--file", str(out)]) == cli.EXIT_OK
    assert "merged 3 skipped 0" in capsys.readouterr().out
    assert fresh.exists()

    assert cli.run(["cache", "stats", "--cache", str(fresh)]) == cli.EXIT_OK
    stats = capsys.readouterr().out
    assert "entries: 3" in stats


def test_cache_export_selection_prefix(tmp_path, capsys):
    state = seeded_cache_file(tmp_path)  # all three in the recent segment
    out = tmp_path / "subset.tsv"
    prefix = "http://fp.example/fp/photos/p1"
    for selection, kept in (("all", 1), ("recent", 1), ("frequent", 0)):
        assert cli.run(["cache", "export", "--cache", str(state),
                        "--out", str(out), "--selection", selection,
                        "--prefix", prefix]) == cli.EXIT_OK
        capsys.readouterr()
        body = out.read_bytes().decode().splitlines()
        assert len(body) == 1 + kept
        assert all("p1.png" in line for line in body[1:])
    assert cli.run(["cache", "export", "--cache", str(state), "--out",
                    str(out), "--selection", "by-prefix"]) == cli.EXIT_USAGE
    capsys.readouterr()


# -- bench subcommands -------------------------------------------------------

@pytest.fixture
def small_sweeps(monkeypatch):
    """`bench --quick` with 4 symbols, the two fastest presets and 2+5 /
    2+9 ms reads."""
    monkeypatch.setattr(bench, "QUICK_SWEEP", (4, 3, 3))
    monkeypatch.setattr(bench, "LATENCY_PRESETS",
                        {"facebook_cdn": 11, "imgur": 12})
    monkeypatch.setattr(bench, "FIRSTPARTY_DELAY_MS", 2.0)
    monkeypatch.setattr(bench, "OFFSITE_DELAYS_MS", (5.0, 9.0))


def test_bench_decode_subcommand(small_sweeps, tmp_path, capsys):
    assert cli.run(["bench", "--quick", "--out-dir",
                    str(tmp_path / "r")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "decode-4 " in out
    samples = (tmp_path / "r" / "samples.csv").read_text().splitlines()
    cdf = (tmp_path / "r" / "cdf.csv").read_text().splitlines()
    assert samples[0] == "scenario,sample_ms"
    assert cdf[0] == "scenario,ms,fraction"
    # 4 decodes, then 3 timed reads in each of four e2e scenarios
    assert len(samples) == 1 + 4 + 4 * 3
    assert {line.split(",")[0] for line in cdf[1:]} == {
        "decode-4", "e2e-f2-o5-cold", "e2e-f2-o5-warm", "e2e-f2-o9-cold",
        "e2e-f2-o9-warm"}


def test_bench_decode_violation_exits_nonzero(small_sweeps, monkeypatch,
                                              capsys):
    monkeypatch.setattr(bench, "DECODE_CEILING_MS", 0.0)
    code = cli.run(["bench", "--quick"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OPERATIONAL
    (line,) = captured.err.splitlines()
    assert line.startswith("bound violated: decode-4: max decode")
    assert "decode-4" in captured.out  # the tables still print


def test_bench_providers_subcommand(small_sweeps, served_world, capsys):
    assert cli.run(["bench", "--quick"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.split("== provider medians ==")[1]
    assert "facebook_cdn" in rows and "imgur" in rows
    assert "flickr" not in rows

    # a configured provider is measured under its own name, and its served
    # store keeps nothing of the run
    config = served_world["config"]
    assert cli.run(["--config", config, "bench", "--quick",
                    "--providers", "lab"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert re.search(r"^lab +\d", out, re.MULTILINE)
    assert len(served_world["store"].backing) == 0

    assert cli.run(["--config", config, "bench", "--quick",
                    "--providers", "imgur"]) == cli.EXIT_USAGE
    assert "known: lab" in capsys.readouterr().err


def test_bench_holds_a_configured_provider_to_no_preset_bound(
        small_sweeps, tmp_path, capsys):
    # named like the 12 ms preset, but served 30 ms slower than its bound
    slow = MemoryStore(name="imgur", simulated_latency=62.0)
    with serve_store(LOOPBACK, slow) as server:
        config = tmp_path / "imgur.ini"
        config.write_text(
            f"[provider:imgur]\nbase_url = {server.base_url}\n")
        assert cli.run(["--config", str(config), "bench", "--quick",
                        "--providers", "imgur"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    median = re.search(r"^imgur +([\d.]+)", captured.out, re.MULTILINE)
    assert float(median.group(1)) >= 62.0
    assert "bound violated" not in captured.err


def test_bench_e2e_subcommand(small_sweeps, capsys):
    assert cli.run(["bench", "--quick"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for scenario in ("e2e-f2-o5-cold", "e2e-f2-o5-warm", "e2e-f2-o9-cold",
                     "e2e-f2-o9-warm"):
        assert scenario in out
    assert "cache saving at offsite 5 ms:" in out
    assert "cache saving at offsite 9 ms:" in out


def test_bench_decodes_under_the_configured_qr(small_sweeps, monkeypatch,
                                               tmp_path, capsys):
    seen = []
    decode = bench.bench_decode
    monkeypatch.setattr(bench, "bench_decode", lambda count, qr, rng: (
        seen.append(qr), decode(count, qr, rng))[1])
    config = tmp_path / "qr.ini"
    config.write_text("[qr]\nec_level = H\ntarget_size = 256\n")
    assert cli.run(["--config", str(config), "bench",
                    "--quick"]) == cli.EXIT_OK
    capsys.readouterr()
    assert seen == [codec.QrConfig(ec_level="H", target_size=256)]


def test_reproduce_eval_script_runs_bench(small_sweeps, monkeypatch,
                                          tmp_path, capsys):
    script = pathlib.Path(__file__).parents[1] / "scripts" / \
        "reproduce_eval.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--quick", "--out-dir",
                                      str(tmp_path)])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(script), run_name="__main__")
    assert exited.value.code == cli.EXIT_OK
    assert "e2e-f2-o9-warm" in capsys.readouterr().out
    assert (tmp_path / "cdf.csv").exists()


# -- servers -----------------------------------------------------------------

@pytest.mark.parametrize("flags, kind", [
    ([], MemoryStore), (["--root", "ROOT"], FilesystemStore)])
def test_serve_store_flags(monkeypatch, tmp_path, capsys, flags, kind):
    served = []

    def serve(bind, backing):
        served.append(backing)
        return serve_store(bind, backing)

    monkeypatch.setattr(store, "serve_store", serve)
    monkeypatch.setattr(cli, "_wait_for_interrupt",
                        lambda server: server.shutdown() or cli.EXIT_OK)
    flags = [str(tmp_path) if f == "ROOT" else f for f in flags]
    assert cli.run(["serve-store", "--bind", "127.0.0.1:0",
                    "--latency", "7", *flags]) == cli.EXIT_OK
    assert "store serving at http://127.0.0.1:" in capsys.readouterr().out
    (backing,) = served
    assert type(backing) is kind
    assert backing.simulated_latency == 7.0
    assert getattr(backing, "root", None) == (tmp_path if flags else None)


@pytest.mark.parametrize("argv", [
    ["serve-store", "--latency", "-1"], ["serve-firstparty", "--delay", "-1"],
    ["serve-store", "--latency", "nan"], ["serve-firstparty", "--delay", "x"]])
def test_a_bad_serve_delay_is_a_usage_error(monkeypatch, capsys, argv):
    # refused before anything binds, as any bad flag value is
    bound = []
    monkeypatch.setattr(store, "serve_store", lambda *a: bound.append(a))
    monkeypatch.setattr(firstparty, "serve_firstparty",
                        lambda *a: bound.append(a))
    assert cli.run([*argv, "--bind", "127.0.0.1:0"]) == cli.EXIT_USAGE
    assert "expected milliseconds >= 0" in capsys.readouterr().err
    assert bound == []


def test_serve_store_on_a_bound_port_exits_1(capsys):
    with serve_store(LOOPBACK, MemoryStore(name="lab")) as taken:
        bind = taken.base_url.split("//")[1].split("/")[0]
        assert cli.run(["serve-store", "--bind", bind]) == \
            cli.EXIT_OPERATIONAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("r2o: ") and "Address already in use" in err


# -- end-to-end over sockets -------------------------------------------------

def test_upload_resolve_flow(served_world, tmp_path, capsys):
    cfg = served_world["config"]
    photo, original = png_file(tmp_path, seed=21)
    cache_file = tmp_path / "mappings.tsv"

    assert cli.run(["--config", cfg, "upload", "--provider", "lab",
                    "--file", str(photo), "--caption", "pier",
                    "--album-title", "trip"]) == cli.EXIT_OK
    lines = dict(line.split(": ", 1)
                 for line in capsys.readouterr().out.splitlines())
    assert set(lines) == {"offsite_locator", "pseudo_locator", "photo_id",
                          "album_id"}
    store_base = served_world["store"].base_url
    assert lines["offsite_locator"].startswith(store_base)

    page = (served_world["firstparty"].base_url +
            f"/fp/albums/{lines['album_id']}/page")
    out_html = tmp_path / "resolved.html"
    assert cli.run(["--config", cfg, "resolve", "--page", page,
                    "--out", str(out_html),
                    "--cache-file", str(cache_file)]) == cli.EXIT_OK
    capsys.readouterr()
    html_bytes = out_html.read_bytes()
    assert lines["offsite_locator"].encode() in html_bytes
    assert lines["pseudo_locator"].encode() not in html_bytes

    # the resolve left its learned mapping behind
    state = cache_file.read_bytes().decode()
    assert lines["pseudo_locator"] in state

    inline_html = tmp_path / "inline.html"
    assert cli.run(["--config", cfg, "resolve", "--page", page,
                    "--out", str(inline_html),
                    "--inline"]) == cli.EXIT_OK
    capsys.readouterr()
    assert b"data:image/png;base64," in inline_html.read_bytes()


def test_seeded_runs_share_one_served_store(served_world, capsys):
    # the second run's seeded object id is taken: the store answers 409,
    # keeps the first run's object, and the upload lands under a new id
    photo, data = png_file(served_world["tmp"], seed=6)
    album = served_world["firstparty"].backing.create_album("same")
    locators = []
    for _ in range(2):
        assert cli.run(["--config", served_world["config"], "--seed", "42",
                        "upload", "--provider", "lab", "--file", str(photo),
                        "--album", album]) == cli.EXIT_OK
        lines = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        locators.append(lines["offsite_locator"])
    assert locators[0] != locators[1]
    with closing(HttpStoreClient(served_world["store"].base_url)) as client:
        assert [client.fetch(loc).data for loc in locators] == [data, data]


def test_seeded_runs_are_reproducible(tmp_path, capsys):
    # fresh servers per run: a store that holds the seeded ids answers 409
    photo, _ = png_file(tmp_path, seed=5)
    receipts = []
    for i in range(2):
        store_server = serve_store(LOOPBACK, MemoryStore(name="lab"))
        fp_server = serve_firstparty(LOOPBACK, FirstPartyService(
            response_delay_ms=0.0))
        config = tmp_path / f"run{i}.ini"
        config.write_text(
            "[r2o]\n"
            f"firstparty_url = {fp_server.base_url}\n"
            "[provider:lab]\n"
            f"base_url = {store_server.base_url}\n")
        try:
            assert cli.run(["--config", str(config), "--seed", "42",
                            "upload", "--provider", "lab", "--file",
                            str(photo), "--album-title", "same"]) == \
                cli.EXIT_OK
        finally:
            store_server.shutdown()
            fp_server.shutdown()
        lines = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        receipts.append({
            "object": lines["offsite_locator"].rsplit("/", 1)[1],
            "photo": lines["photo_id"],
            "album": lines["album_id"],
        })
    assert receipts[0] == receipts[1]
