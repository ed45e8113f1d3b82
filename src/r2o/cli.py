"""Command-line front end wiring the pipeline together.

Every subcommand is a thin wrapper over a module interface: servers from
store/firstparty, upload over write_path, resolve over resolve_page,
encode/decode over the codec (giving interop with any external QR
reader), cache file management over the mapping wire format, and the
bench scenarios. Configuration comes from an INI file named by --config
or the R2O_CONFIG environment variable; command-line flags override file
values, which override built-in defaults.

Exit codes: 0 success, 1 operational error, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import random
import sys
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import bench, codec, core, firstparty, store
from .cache import CacheConfig, MappingsCache, UnsupportedVersion
from .filter import FilterConfig
from .store import LATENCY_PRESETS, ContentItem, ProviderDescriptor

ENV_CONFIG = "R2O_CONFIG"
DEFAULT_FIRSTPARTY_URL = "http://127.0.0.1:8601"
DEFAULT_STORE_BIND = "127.0.0.1:8600"
DEFAULT_FIRSTPARTY_BIND = "127.0.0.1:8601"

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Invocation problem: bad flag value, unknown name, bad config."""


# -- configuration ----------------------------------------------------------

def default_providers() -> dict[str, ProviderDescriptor]:
    """One in-memory provider per shipped latency preset."""
    return {
        name: ProviderDescriptor(
            name=name, kind="memory",
            base_url=store.default_base_url(name),
            simulated_latency=float(latency))
        for name, latency in LATENCY_PRESETS.items()
    }


@dataclass(frozen=True)
class Config:
    """Resolved settings for one invocation."""

    filter: FilterConfig = field(default_factory=FilterConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    qr: codec.QrConfig = field(default_factory=codec.QrConfig)
    providers: dict[str, ProviderDescriptor] = field(
        default_factory=default_providers)
    firstparty_url: str = DEFAULT_FIRSTPARTY_URL
    parallelism: int = core.DEFAULT_PARALLELISM
    filesystem_roots: dict[str, str] = field(default_factory=dict)

    def provider(self, name: str) -> ProviderDescriptor:
        if name not in self.providers:
            known = ", ".join(sorted(self.providers)) or "(none)"
            raise UsageError(f"unknown provider {name!r}; known: {known}")
        return self.providers[name]


def _get(section, key, cast, current):
    if key not in section:
        return current
    raw = section[key]
    try:
        if cast is bool:
            return section.getboolean(key)
        return cast(raw)
    except (ValueError, AttributeError):
        raise UsageError(f"bad config value {key} = {raw!r}") from None


def _csv_tuple(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _provider_from_section(name: str, section) -> tuple[ProviderDescriptor,
                                                        str | None]:
    kind = section.get("kind", "memory").strip()
    latency = _get(section, "latency", float, None)
    base_url = section.get("base_url", "").strip()
    root = section.get("root", "").strip() or None
    if kind == "preset":
        preset = section.get("preset", name).strip()
        if preset not in LATENCY_PRESETS:
            raise UsageError(f"provider {name!r}: unknown preset {preset!r}")
        kind = "memory"
        latency = float(LATENCY_PRESETS[preset]) if latency is None else latency
    if kind == "http" and not base_url:
        raise UsageError(f"provider {name!r}: http kind needs base_url")
    if kind == "filesystem" and root is None:
        raise UsageError(f"provider {name!r}: filesystem kind needs root")
    if kind not in ("memory", "filesystem", "http"):
        raise UsageError(f"provider {name!r}: unknown kind {kind!r}")
    if not base_url:
        base_url = store.default_base_url(name)
    return ProviderDescriptor(name=name, kind=kind, base_url=base_url,
                              simulated_latency=latency), root


def load_config(path: str | None) -> Config:
    """Parse the INI config file; missing path means built-in defaults."""
    cfg = Config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")

    fc, cc, qc = cfg.filter, cfg.cache, cfg.qr
    firstparty_url = cfg.firstparty_url
    parallelism = cfg.parallelism
    if parser.has_section("r2o"):
        s = parser["r2o"]
        firstparty_url = s.get("firstparty_url", firstparty_url).strip()
        parallelism = _get(s, "parallelism", int, parallelism)
    if parser.has_section("filter"):
        s = parser["filter"]
        fc = FilterConfig(
            path_prefixes=_get(s, "path_prefixes", _csv_tuple,
                               fc.path_prefixes),
            min_edge=_get(s, "min_edge", int, fc.min_edge),
            max_edge=_get(s, "max_edge", int, fc.max_edge),
            require_square=_get(s, "require_square", bool, fc.require_square),
            excluded_subtypes=frozenset(_get(s, "excluded_subtypes",
                                             _csv_tuple,
                                             tuple(fc.excluded_subtypes))),
            caption_marker=s.get("caption_marker", fc.caption_marker))
    if parser.has_section("cache"):
        s = parser["cache"]
        cc = CacheConfig(n_frequent=_get(s, "n_frequent", int, cc.n_frequent),
                         m_recent=_get(s, "m_recent", int, cc.m_recent))
    if parser.has_section("qr"):
        s = parser["qr"]
        qc = codec.QrConfig(
            ec_level=s.get("ec_level", qc.ec_level).strip(),
            min_version=_get(s, "min_version", int, qc.min_version),
            module_scale=_get(s, "module_scale", int, qc.module_scale),
            target_size=_get(s, "target_size", int, qc.target_size))

    providers = default_providers()
    roots: dict[str, str] = {}
    declared = [s for s in parser.sections() if s.startswith("provider:")]
    if declared:
        providers = {}
        for section_name in declared:
            name = section_name.split(":", 1)[1]
            desc, root = _provider_from_section(name, parser[section_name])
            providers[name] = desc
            if root is not None:
                roots[name] = root
    try:
        return Config(filter=fc, cache=cc, qr=qc, providers=providers,
                      firstparty_url=firstparty_url, parallelism=parallelism,
                      filesystem_roots=roots)
    except ValueError as exc:
        raise UsageError(f"bad config: {exc}") from None


def build_provider(cfg: Config, name: str):
    """Instantiate the store object behind a configured provider name."""
    desc = cfg.provider(name)
    if desc.kind == "memory":
        return store.MemoryStore(name=desc.name, base_url=desc.base_url,
                                 simulated_latency=desc.simulated_latency)
    if desc.kind == "filesystem":
        return store.FilesystemStore(
            cfg.filesystem_roots[name], name=desc.name,
            base_url=desc.base_url,
            simulated_latency=desc.simulated_latency)
    return store.HttpStoreClient(desc.base_url, name=desc.name)


# -- small helpers ----------------------------------------------------------

def _parse_bind(raw: str) -> tuple[str, int]:
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise UsageError(f"bind address must be HOST:PORT, got {raw!r}")
    try:
        return host, int(port)
    except ValueError:
        raise UsageError(f"bad port in bind address {raw!r}") from None


def _load_cache_file(cfg: Config, path: str | None) -> MappingsCache:
    cache = MappingsCache(cfg.cache)
    if path and Path(path).exists():
        cache.import_mappings(Path(path).read_bytes())
    return cache


def _save_cache_file(cache: MappingsCache, path: str | None) -> None:
    if path:
        Path(path).write_bytes(cache.export_mappings())


def _wait_for_interrupt(servers) -> int:
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        for server in servers:
            server.shutdown()
    return EXIT_OK


def _emit_report(args, reports: list[bench.BenchReport]) -> None:
    print(bench.render_table(["scenario", "median_ms", "mean_ms", "p95_ms"],
                             bench.summary_rows(reports)))
    if getattr(args, "csv", None):
        bench.write_samples_csv(reports, args.csv)
    if getattr(args, "cdf_csv", None):
        bench.write_cdf_csv(reports, args.cdf_csv)


def _finish_bench(violations: list[str]) -> int:
    for line in violations:
        print(f"bound violated: {line}", file=sys.stderr)
    return EXIT_OPERATIONAL if violations else EXIT_OK


# -- subcommand handlers ----------------------------------------------------

def _cmd_serve_store(args, cfg: Config, rng) -> int:
    if args.root:
        backing = store.FilesystemStore(args.root, name=args.name,
                                        simulated_latency=args.latency)
    else:
        backing = store.MemoryStore(name=args.name,
                                    simulated_latency=args.latency)
    server = store.serve_store(_parse_bind(args.bind), backing)
    print(f"store serving at {server.base_url}", flush=True)
    return _wait_for_interrupt([server])


def _cmd_serve_firstparty(args, cfg: Config, rng) -> int:
    service = firstparty.FirstPartyService(response_delay_ms=args.delay)
    servers = []
    server = firstparty.serve_firstparty(_parse_bind(args.bind), service)
    servers.append(server)
    print(f"firstparty serving at {server.base_url}/fp", flush=True)
    if args.store_bind:
        backing = store.MemoryStore(name="colocated",
                                    simulated_latency=args.store_latency)
        store_server = store.serve_store(_parse_bind(args.store_bind),
                                         backing)
        servers.append(store_server)
        print(f"store serving at {store_server.base_url}", flush=True)
    return _wait_for_interrupt(servers)


def _cmd_upload(args, cfg: Config, rng) -> int:
    data = Path(args.file).read_bytes()
    media_type = ("image/png" if args.file.lower().endswith(".png")
                  else "application/octet-stream")
    with closing(build_provider(cfg, args.provider)) as provider, \
            closing(core.HttpFirstPartyClient(
                args.firstparty or cfg.firstparty_url)) as client:
        album_id = args.album or client.create_album(args.album_title)
        receipt = core.write_path(
            ContentItem(data=data, media_type=media_type), args.caption,
            album_id, provider, client, qr_config=cfg.qr,
            filter_cfg=cfg.filter)
    print(f"offsite_locator: {receipt.offsite_locator}")
    print(f"pseudo_locator: {receipt.pseudo_locator}")
    print(f"photo_id: {receipt.photo_id}")
    print(f"album_id: {receipt.album_id}")
    return EXIT_OK


def _cmd_resolve(args, cfg: Config, rng) -> int:
    cache = _load_cache_file(cfg, args.cache_file)
    parallelism = args.parallelism or cfg.parallelism
    with closing(core.HttpFetcher()) as fetcher:
        html_bytes = core.resolve_page(args.page, fetcher,
                                       filter_cfg=cfg.filter, cache=cache,
                                       parallelism=parallelism,
                                       inline=args.inline)
    if args.out == "-":
        sys.stdout.buffer.write(html_bytes)
    else:
        Path(args.out).write_bytes(html_bytes)
        print(f"wrote {args.out} ({len(html_bytes)} bytes)")
    _save_cache_file(cache, args.cache_file)
    return EXIT_OK


def _cmd_encode(args, cfg: Config, rng) -> int:
    qr = cfg.qr
    if args.ec_level:
        qr = replace(qr, ec_level=args.ec_level)
    if args.target_size:
        qr = replace(qr, target_size=args.target_size)
    try:
        image = codec.encode_qr(codec.IndirectionPayload(locator=args.url),
                                qr)
    except (codec.InvalidPayload, codec.CapacityExceeded) as exc:
        raise UsageError(str(exc)) from None
    Path(args.out).write_bytes(image.to_png())
    print(f"wrote {args.out} ({image.width}x{image.height} px)")
    return EXIT_OK


def _cmd_decode(args, cfg: Config, rng) -> int:
    image = codec.PseudoImage.from_png(Path(args.file).read_bytes())
    payload = codec.decode_qr(image)
    print(payload.locator)
    return EXIT_OK


def _cmd_cache_export(args, cfg: Config, rng) -> int:
    cache = _load_cache_file(cfg, args.cache)
    blob = cache.export_mappings(args.selection, prefix=args.prefix)
    Path(args.out).write_bytes(blob)
    entries = len(blob.splitlines()) - 1
    print(f"wrote {args.out} ({entries} entries)")
    return EXIT_OK


def _cmd_cache_import(args, cfg: Config, rng) -> int:
    cache = _load_cache_file(cfg, args.cache)
    merged = cache.import_mappings(Path(args.file).read_bytes())
    _save_cache_file(cache, args.cache)
    print(f"merged {merged} skipped {cache.skipped_on_last_import} "
          f"total {len(cache)}")
    return EXIT_OK


def _cmd_cache_stats(args, cfg: Config, rng) -> int:
    cache = _load_cache_file(cfg, args.cache)
    frequent, recent = cache.snapshot()
    print(f"entries: {len(cache)}")
    print(f"frequent: {len(frequent)} / {cache.config.n_frequent}")
    print(f"recent: {len(recent)} / {cache.config.m_recent}")
    return EXIT_OK


def _cmd_bench_decode(args, cfg: Config, rng) -> int:
    report = bench.bench_decode(args.count, qr_config=cfg.qr, rng=rng,
                                repetitions=args.repetitions)
    _emit_report(args, [report])
    violations = (bench.check_decode_bounds(report, args.max_ms)
                  if args.check else [])
    return _finish_bench(violations)


def _cmd_bench_providers(args, cfg: Config, rng) -> int:
    if args.providers:
        names = _csv_tuple(args.providers)
        providers = [build_provider(cfg, name) for name in names]
    else:
        providers = None
    rows = bench.bench_providers(providers, item_size=args.item_size,
                                 repetitions=args.repetitions,
                                 interval=args.interval)
    print(bench.render_table(["provider", "median_ms"], rows))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("provider,median_ms\n")
            for name, median in rows:
                fh.write(f"{name},{median:.6f}\n")
    violations = (bench.check_provider_bounds(rows, args.tolerance)
                  if args.check else [])
    return _finish_bench(violations)


def _cmd_bench_e2e(args, cfg: Config, rng) -> int:
    f, o = args.firstparty_delay, args.offsite_delay
    reports: list[bench.BenchReport] = []
    violations: list[str] = []
    if args.mode in ("cold", "both"):
        cold = bench.bench_end_to_end(f, o, use_cache=False,
                                      iterations=args.iterations, rng=rng)
        reports.append(cold)
        if args.check:
            violations += bench.check_composition_bounds(cold, f, o)
    if args.mode in ("warm", "both"):
        warm = bench.bench_end_to_end(f, o, use_cache=True,
                                      iterations=args.iterations, rng=rng)
        reports.append(warm)
        if args.check:
            violations += bench.check_warm_bounds(warm, o)
    _emit_report(args, reports)
    if args.mode == "both":
        print(f"cache saving: {reports[0].median - reports[1].median:.2f} ms")
    return _finish_bench(violations)


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="r2o",
        description="Content indirection toolkit: off-site hosting behind "
                    "machine-decodable placeholders.")
    p.add_argument("--config", help=f"INI config path (or ${ENV_CONFIG})")
    p.add_argument("--seed", type=int, metavar="U64",
                   help="seed object ids and bench URLs for reproducibility")
    p.add_argument("--parallelism", type=int,
                   help="decode-stage concurrency for resolve")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("serve-store", help="run an object-store server")
    s.add_argument("--bind", default=DEFAULT_STORE_BIND, metavar="HOST:PORT")
    s.add_argument("--root", help="back with this directory instead of RAM")
    s.add_argument("--latency", type=float, default=None, metavar="MS")
    s.add_argument("--name", default="served")
    s.set_defaults(handler=_cmd_serve_store)

    s = sub.add_parser("serve-firstparty",
                       help="run the simulated social service")
    s.add_argument("--bind", default=DEFAULT_FIRSTPARTY_BIND,
                   metavar="HOST:PORT")
    s.add_argument("--delay", type=float,
                   default=firstparty.DEFAULT_RESPONSE_DELAY_MS, metavar="MS")
    s.add_argument("--store-bind", metavar="HOST:PORT",
                   help="also serve an object store from this process")
    s.add_argument("--store-latency", type=float, default=None, metavar="MS")
    s.set_defaults(handler=_cmd_serve_firstparty)

    s = sub.add_parser("upload",
                       help="host a file off-site, post its schema")
    s.add_argument("--album", help="existing album id (default: create one)")
    s.add_argument("--album-title", default="r2o album")
    s.add_argument("--file", required=True)
    s.add_argument("--provider", required=True)
    s.add_argument("--caption", default=None)
    s.add_argument("--firstparty", metavar="URL")
    s.set_defaults(handler=_cmd_upload)

    s = sub.add_parser("resolve", help="rewrite a page's schemata to "
                                       "real content")
    s.add_argument("--page", required=True, metavar="URL")
    s.add_argument("--out", required=True, help="output path, - for stdout")
    s.add_argument("--inline", action="store_true",
                   help="embed fetched bytes as data: URLs")
    s.add_argument("--cache-file", help="mappings TSV read before and "
                                        "written after")
    s.set_defaults(handler=_cmd_resolve)

    s = sub.add_parser("encode", help="URL to QR pseudo-image PNG")
    s.add_argument("url")
    s.add_argument("--out", required=True)
    s.add_argument("--ec-level", choices=["L", "M", "Q", "H"])
    s.add_argument("--target-size", type=int)
    s.set_defaults(handler=_cmd_encode)

    s = sub.add_parser("decode", help="QR pseudo-image PNG to its URL")
    s.add_argument("--file", required=True)
    s.set_defaults(handler=_cmd_decode)

    s = sub.add_parser("cache", help="manage mapping files")
    cache_sub = s.add_subparsers(dest="cache_command", required=True)
    c = cache_sub.add_parser("export", help="write a selection of mappings")
    c.add_argument("--cache", required=True, help="state TSV to read")
    c.add_argument("--out", required=True)
    c.add_argument("--selection", default="all",
                   choices=["all", "frequent", "recent", "by-prefix"])
    c.add_argument("--prefix")
    c.set_defaults(handler=_cmd_cache_export)
    c = cache_sub.add_parser("import", help="merge mappings into a state "
                                            "file")
    c.add_argument("--cache", required=True, help="state TSV to update")
    c.add_argument("--file", required=True, help="mappings TSV to merge in")
    c.set_defaults(handler=_cmd_cache_import)
    c = cache_sub.add_parser("stats", help="report cache file occupancy")
    c.add_argument("--cache", required=True)
    c.set_defaults(handler=_cmd_cache_stats)

    s = sub.add_parser("bench", help="latency scenarios")
    bench_sub = s.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser("decode", help="decode-time distribution")
    b.add_argument("--count", type=int, default=500)
    b.add_argument("--repetitions", type=int, default=None)
    b.add_argument("--max-ms", type=float, default=bench.DECODE_CEILING_MS)
    b.add_argument("--check", action="store_true",
                   help="fail the run on violated bounds")
    b.add_argument("--csv")
    b.add_argument("--cdf-csv")
    b.set_defaults(handler=_cmd_bench_decode)
    b = bench_sub.add_parser("providers", help="per-provider fetch medians")
    b.add_argument("--providers", help="comma-separated configured names "
                                       "(default: all latency presets)")
    b.add_argument("--item-size", type=int, default=bench.DEFAULT_ITEM_SIZE)
    b.add_argument("--repetitions", type=int, default=10)
    b.add_argument("--interval", type=float, default=0.0,
                   help="seconds between fetches")
    b.add_argument("--tolerance", type=float,
                   default=bench.PROVIDER_TOLERANCE_MS)
    b.add_argument("--check", action="store_true")
    b.add_argument("--csv")
    b.set_defaults(handler=_cmd_bench_providers)
    b = bench_sub.add_parser("e2e", help="end-to-end resolution latency")
    b.add_argument("--firstparty-delay", type=float, default=11.0)
    b.add_argument("--offsite-delay", type=float, default=147.0)
    b.add_argument("--mode", choices=["cold", "warm", "both"],
                   default="both")
    b.add_argument("--iterations", type=int,
                   default=bench.DEFAULT_E2E_ITERATIONS)
    b.add_argument("--check", action="store_true")
    b.add_argument("--csv")
    b.add_argument("--cdf-csv")
    b.set_defaults(handler=_cmd_bench_e2e)

    return p


# -- entry ------------------------------------------------------------------

def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    store.seed_ids(args.seed)
    firstparty.seed_ids(args.seed)
    rng = random.Random(args.seed) if args.seed is not None else None
    try:
        cfg = load_config(args.config or os.environ.get(ENV_CONFIG))
        if args.parallelism:
            cfg = replace(cfg, parallelism=args.parallelism)
        return args.handler(args, cfg, rng)
    except UsageError as exc:
        print(f"r2o: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (core.CoreError, store.StoreError, firstparty.FirstPartyError,
            codec.CodecError, codec.PNGError, UnsupportedVersion,
            OSError, ValueError) as exc:
        print(f"r2o: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    finally:
        store.seed_ids(None)
        firstparty.seed_ids(None)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
