"""Command-line front end wiring the pipeline together.

Every subcommand is a thin wrapper over a module interface: servers from
store/firstparty, upload over write_path, resolve over resolve_page,
encode/decode over the codec (giving interop with any external QR
reader), cache file management over the mapping wire format, and bench
over `bench.evaluate`. Configuration comes from an INI file named by
--config or the R2O_CONFIG environment variable; command-line flags
override file values, which override built-in defaults.

Exit codes: 0 success, 1 operational error, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import random
import sys
import time
from contextlib import ExitStack, closing
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import bench, codec, core, firstparty, store
from .cache import CacheConfig, MappingsCache
from .filter import FilterConfig
from .locator import validate_locator
from .store import ContentItem

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

@dataclass(frozen=True)
class Config:
    """Resolved settings for one invocation."""

    filter: FilterConfig = field(default_factory=FilterConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    qr: codec.QrConfig = field(default_factory=codec.QrConfig)
    # each configured provider's name and the base URL of its served store
    providers: dict[str, str] = field(default_factory=dict)
    firstparty_url: str = DEFAULT_FIRSTPARTY_URL

    def provider(self, name: str) -> store.HttpStoreClient:
        """A client for the served store a configured provider names."""
        if name not in self.providers:
            known = ", ".join(sorted(self.providers)) or "(none)"
            raise UsageError(f"unknown provider {name!r}; known: {known}")
        return store.HttpStoreClient(self.providers[name], name=name)


def _csv_tuple(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


# the keys each section may set, with the cast that reads each value
_SECTIONS = {
    "r2o": {"firstparty_url": str},
    "filter": {"path_prefixes": _csv_tuple},
    "cache": {"n_frequent": int, "m_recent": int},
    "qr": {"ec_level": str, "target_size": int},
}
_PROVIDER_KEYS = {"base_url": validate_locator}


def _read_section(parser, name: str, casts: dict) -> dict:
    """A section's values, cast; an unknown key or bad value is refused."""
    values = {}
    for key, raw in parser[name].items():
        if key not in casts:
            raise UsageError(f"unknown config key {key!r} in [{name}]")
        try:
            values[key] = casts[key](raw)
        except (ValueError, KeyError):
            raise UsageError(f"bad config value {key} = {raw!r}") from None
    return values


def load_config(path: str | None) -> Config:
    """Parse the INI config file; missing path means built-in defaults.

    An unknown section or key is a UsageError that names it.
    """
    cfg = Config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")

    values: dict[str, dict] = {name: {} for name in _SECTIONS}
    providers: dict[str, str] = {}
    for section_name in parser.sections():
        if section_name.startswith("provider:"):
            name = section_name.split(":", 1)[1]
            s = _read_section(parser, section_name, _PROVIDER_KEYS)
            if "base_url" not in s:
                raise UsageError(f"provider {name!r} needs base_url")
            providers[name] = s["base_url"].rstrip("/")
        elif section_name in _SECTIONS:
            values[section_name] = _read_section(parser, section_name,
                                                 _SECTIONS[section_name])
        else:
            raise UsageError(f"unknown config section [{section_name}]")
    try:
        return Config(filter=replace(cfg.filter, **values["filter"]),
                      cache=replace(cfg.cache, **values["cache"]),
                      qr=replace(cfg.qr, **values["qr"]),
                      providers=providers,
                      firstparty_url=values["r2o"].get("firstparty_url",
                                                       cfg.firstparty_url))
    except ValueError as exc:
        raise UsageError(f"bad config: {exc}") from None


# -- small helpers ----------------------------------------------------------

def _parse_bind(raw: str) -> tuple[str, int]:
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise UsageError(f"bind address must be HOST:PORT, got {raw!r}")
    try:
        return host, int(port)
    except ValueError:
        raise UsageError(f"bad port in bind address {raw!r}") from None


def _milliseconds(raw: str) -> float:
    """A delay flag's value; anything but a finite ms >= 0 is refused as
    argparse refuses a bad flag, with exit 2."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected milliseconds >= 0, got {raw!r}")
    return value


def _load_cache_file(cfg: Config, path: str | None) -> MappingsCache:
    cache = MappingsCache(cfg.cache)
    if path and Path(path).exists():
        cache.import_mappings(Path(path).read_bytes())
    return cache


def _save_cache_file(cache: MappingsCache, path: str | None) -> None:
    if path:
        Path(path).write_bytes(cache.export_mappings())


def _wait_for_interrupt(server) -> int:
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return EXIT_OK


# -- subcommand handlers ----------------------------------------------------

def _cmd_serve_store(args, cfg: Config) -> int:
    backing = (store.FilesystemStore(args.root, "served", args.latency)
               if args.root else store.MemoryStore("served", args.latency))
    server = store.serve_store(_parse_bind(args.bind), backing)
    print(f"store serving at {server.base_url}", flush=True)
    return _wait_for_interrupt(server)


def _cmd_serve_firstparty(args, cfg: Config) -> int:
    service = firstparty.FirstPartyService(response_delay_ms=args.delay)
    server = firstparty.serve_firstparty(_parse_bind(args.bind), service)
    print(f"firstparty serving at {server.base_url}/fp", flush=True)
    return _wait_for_interrupt(server)


def _cmd_upload(args, cfg: Config) -> int:
    data = Path(args.file).read_bytes()
    media_type = ("image/png" if args.file.lower().endswith(".png")
                  else "application/octet-stream")
    provider = cfg.provider(args.provider)
    client = core.HttpFirstPartyClient(args.firstparty or cfg.firstparty_url)
    with closing(provider), closing(client):
        album_id = args.album or client.create_album(args.album_title)
        receipt = core.write_path(
            ContentItem(data=data, media_type=media_type), args.caption,
            album_id, provider, client, qr_config=cfg.qr)
    print(f"offsite_locator: {receipt.offsite_locator}")
    print(f"pseudo_locator: {receipt.pseudo_locator}")
    print(f"photo_id: {receipt.photo_id}")
    print(f"album_id: {receipt.album_id}")
    return EXIT_OK


def _cmd_resolve(args, cfg: Config) -> int:
    cache = _load_cache_file(cfg, args.cache_file)
    with closing(core.HttpFetcher()) as fetcher:
        html_bytes = core.resolve_page(args.page, fetcher,
                                       filter_cfg=cfg.filter, cache=cache,
                                       inline=args.inline)
    if args.out == "-":
        sys.stdout.buffer.write(html_bytes)
    else:
        Path(args.out).write_bytes(html_bytes)
        print(f"wrote {args.out} ({len(html_bytes)} bytes)")
    _save_cache_file(cache, args.cache_file)
    return EXIT_OK


def _cmd_encode(args, cfg: Config) -> int:
    qr = cfg.qr
    if args.ec_level:
        qr = replace(qr, ec_level=args.ec_level)
    if args.target_size is not None:
        qr = replace(qr, target_size=args.target_size)
    try:
        image = codec.encode_qr(codec.IndirectionPayload(locator=args.url),
                                qr)
    except (codec.InvalidPayload, codec.CapacityExceeded,
            codec.TargetTooSmall) as exc:
        raise UsageError(str(exc)) from None
    Path(args.out).write_bytes(image.to_png())
    print(f"wrote {args.out} ({image.width}x{image.height} px)")
    return EXIT_OK


def _cmd_decode(args, cfg: Config) -> int:
    image = codec.PseudoImage.from_png(Path(args.file).read_bytes())
    payload = codec.decode_qr(image)
    print(payload.locator)
    return EXIT_OK


def _cmd_cache_export(args, cfg: Config) -> int:
    cache = _load_cache_file(cfg, args.cache)
    blob = cache.export_mappings(args.selection, prefix=args.prefix)
    Path(args.out).write_bytes(blob)
    entries = len(blob.splitlines()) - 1
    print(f"wrote {args.out} ({entries} entries)")
    return EXIT_OK


def _cmd_cache_import(args, cfg: Config) -> int:
    cache = _load_cache_file(cfg, args.cache)
    merged, skipped = cache.import_mappings(Path(args.file).read_bytes())
    _save_cache_file(cache, args.cache)
    print(f"merged {merged} skipped {skipped} total {len(cache)}")
    return EXIT_OK


def _cmd_cache_stats(args, cfg: Config) -> int:
    cache = _load_cache_file(cfg, args.cache)
    frequent, recent = cache.snapshot()
    print(f"entries: {len(cache)}")
    print(f"frequent: {len(frequent)} / {cache.config.n_frequent}")
    print(f"recent: {len(recent)} / {cache.config.m_recent}")
    return EXIT_OK


def _cmd_bench(args, cfg: Config) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    with ExitStack() as stack:
        providers = [stack.enter_context(closing(cfg.provider(n)))
                     for n in _csv_tuple(args.providers)]
        violations = bench.evaluate(args.quick, cfg.qr, providers or None,
                                    rng, args.out_dir)
    for line in violations:
        print(f"bound violated: {line}", file=sys.stderr)
    return EXIT_OPERATIONAL if violations else EXIT_OK


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="r2o",
        description="Content indirection toolkit: off-site hosting behind "
                    "machine-decodable placeholders.")
    p.add_argument("--config", help=f"INI config path (or ${ENV_CONFIG})")
    p.add_argument("--seed", type=int, metavar="U64",
                   help="seed object ids and bench URLs for reproducibility")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("serve-store", help="run an object-store server")
    s.add_argument("--bind", default=DEFAULT_STORE_BIND, metavar="HOST:PORT")
    s.add_argument("--root", help="back with this directory instead of RAM")
    s.add_argument("--latency", type=_milliseconds, default=None,
                   metavar="MS")
    s.set_defaults(handler=_cmd_serve_store)

    s = sub.add_parser("serve-firstparty",
                       help="run the simulated social service")
    s.add_argument("--bind", default=DEFAULT_FIRSTPARTY_BIND,
                   metavar="HOST:PORT")
    s.add_argument("--delay", type=_milliseconds,
                   default=firstparty.DEFAULT_RESPONSE_DELAY_MS, metavar="MS")
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
                   choices=["all", "frequent", "recent"])
    c.add_argument("--prefix", default="",
                   help="only pseudo-locators that start with this")
    c.set_defaults(handler=_cmd_cache_export)
    c = cache_sub.add_parser("import", help="merge mappings into a state "
                                            "file")
    c.add_argument("--cache", required=True, help="state TSV to update")
    c.add_argument("--file", required=True, help="mappings TSV to merge in")
    c.set_defaults(handler=_cmd_cache_import)
    c = cache_sub.add_parser("stats", help="report cache file occupancy")
    c.add_argument("--cache", required=True)
    c.set_defaults(handler=_cmd_cache_stats)

    s = sub.add_parser("bench", help="the latency evaluation: decode, "
                                     "provider and cold/warm read sweeps")
    s.add_argument("--quick", action="store_true",
                   help="small sweeps for a fast smoke run")
    s.add_argument("--out-dir", help="write samples.csv and cdf.csv here")
    s.add_argument("--providers", default="",
                   help="comma-separated configured providers "
                        "(default: the in-process latency presets)")
    s.set_defaults(handler=_cmd_bench)

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
    try:
        cfg = load_config(args.config or os.environ.get(ENV_CONFIG))
        return args.handler(args, cfg)
    except UsageError as exc:
        print(f"r2o: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (core.CoreError, store.StoreError, firstparty.FirstPartyError,
            codec.CodecError, OSError, ValueError) as exc:
        print(f"r2o: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    finally:
        store.seed_ids(None)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
