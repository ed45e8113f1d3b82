"""Command-line surface: exits, config handling, subcommand flows."""

import dataclasses
import re

import numpy as np
import pytest

from r2o import cli, codec
from r2o.cache import MAP_HEADER, CacheConfig, MappingsCache, MappingEntry
from r2o.codec.png import write_png
from r2o.filter import FilterConfig
from r2o.firstparty import FirstPartyService, serve_firstparty
from r2o.store import ContentItem, MemoryStore, serve_store

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
        "kind = http\n"
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
    code = cli.run(["upload", "--provider", "nosuch", "--file", str(path),
                    "--album", "a1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "nosuch" in err
    assert "imgur" in err  # the known names are listed


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


def test_encode_ec_level_choices(tmp_path, capsys):
    out = tmp_path / "sym.png"
    assert cli.run(["encode", "http://a.example/x", "--out", str(out),
                    "--ec-level", "H"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.run(["encode", "http://a.example/x", "--out", str(out),
                    "--ec-level", "Z"]) == cli.EXIT_USAGE
    capsys.readouterr()


# -- config loading ----------------------------------------------------------

def test_load_config_sections(tmp_path):
    path = tmp_path / "full.ini"
    root = tmp_path / "blobs"
    path.write_text(
        "[r2o]\n"
        "firstparty_url = http://fp.example:9\n"
        "[filter]\n"
        "path_prefixes = /fp/photos/, /mirror/\n"
        "min_edge = 32\n"
        "excluded_subtypes = gif, bmp\n"
        "[cache]\n"
        "n_frequent = 7\n"
        "m_recent = 9\n"
        "[qr]\n"
        "ec_level = Q\n"
        "target_size = 256\n"
        "[provider:disk]\n"
        "kind = filesystem\n"
        f"root = {root}\n"
        "[provider:fast]\n"
        "kind = memory\n"
        "latency = 4\n")
    cfg = cli.load_config(str(path))
    assert cfg.firstparty_url == "http://fp.example:9"
    assert cfg.filter.path_prefixes == ("/fp/photos/", "/mirror/")
    assert cfg.filter.min_edge == 32
    assert cfg.filter.excluded_subtypes == frozenset({"gif", "bmp"})
    assert cfg.cache.n_frequent == 7 and cfg.cache.m_recent == 9
    assert cfg.qr.ec_level == "Q" and cfg.qr.target_size == 256
    # declared providers replace the preset defaults entirely
    assert set(cfg.providers) == {"disk", "fast"}
    assert cfg.providers["fast"].simulated_latency == 4.0
    disk = cli.build_provider(cfg, "disk")
    assert disk.descriptor.kind == "filesystem"


def test_load_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[cache]\nn_frequent = many\n")
    with pytest.raises(cli.UsageError):
        cli.load_config(str(path))

    path.write_text("[provider:x]\nkind = http\n")
    with pytest.raises(cli.UsageError):
        cli.load_config(str(path))

    path.write_text("[provider:x]\nkind = carrier-pigeon\n")
    with pytest.raises(cli.UsageError):
        cli.load_config(str(path))


@pytest.mark.parametrize("text, named", [
    ("[r2o]\nparallelism = 3\n", "'parallelism' in [r2o]"),
    ("[qr]\nmodule_scale = 2\n", "'module_scale' in [qr]"),
    ("[qrr]\nec_level = H\n", "[qrr]"),
    ("[provider:lab]\nkind = memory\nlatancy = 4\n",
     "'latancy' in [provider:lab]"),
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
    path.write_text("[provider:lab]\nkind = http\n"
                    "base_url = http://127.0.0.1:9/v1/objects\n"
                    "[provider:slow]\nkind = preset\npreset = flickr\n")
    cfg = cli.load_config(str(path))
    assert cfg.providers["lab"].base_url == "http://127.0.0.1:9/v1/objects"
    assert cfg.providers["slow"].simulated_latency == 147.0


def test_removed_parallelism_flag_is_a_usage_error(capsys):
    assert cli.run(["--parallelism", "3", "cache", "stats", "--cache",
                    "none.tsv"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_default_providers_follow_presets():
    cfg = cli.Config()
    assert "flickr" in cfg.providers
    assert cfg.providers["flickr"].simulated_latency == 147.0
    with pytest.raises(cli.UsageError):
        cfg.provider("bitbucket")


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
    state = seeded_cache_file(tmp_path)
    out = tmp_path / "subset.tsv"
    assert cli.run(["cache", "export", "--cache", str(state),
                    "--out", str(out), "--selection", "by-prefix",
                    "--prefix",
                    "http://fp.example/fp/photos/p1"]) == cli.EXIT_OK
    capsys.readouterr()
    body = out.read_bytes().decode().splitlines()
    assert len(body) == 2
    assert "p1.png" in body[1]


# -- bench subcommands -------------------------------------------------------

def test_bench_decode_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    assert cli.run(["bench", "decode", "--count", "4", "--check",
                    "--csv", str(csv_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "decode-4" in out
    assert csv_path.read_text().startswith("scenario,sample_ms")


def test_bench_decode_violation_exits_nonzero(capsys):
    code = cli.run(["bench", "decode", "--count", "3", "--check",
                    "--max-ms", "0.000001"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OPERATIONAL
    assert "bound violated" in captured.err


def test_bench_providers_subcommand(capsys):
    assert cli.run(["bench", "providers", "--providers",
                    "facebook_cdn,imgur", "--repetitions", "3",
                    "--check"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "facebook_cdn" in out and "imgur" in out


def test_bench_e2e_subcommand(capsys):
    assert cli.run(["bench", "e2e", "--firstparty-delay", "2",
                    "--offsite-delay", "5", "--iterations", "3",
                    "--mode", "both"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "e2e-f2-o5-cold" in out
    assert "e2e-f2-o5-warm" in out
    assert "cache saving:" in out


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


def test_seeded_runs_are_reproducible(tmp_path, capsys):
    # fresh servers per run: reuse would force collision-avoiding id skips
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
            "kind = http\n"
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
