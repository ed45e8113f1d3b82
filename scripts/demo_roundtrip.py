#!/usr/bin/env python3
"""Walk one photo through the write path and back through the read path.

Everything runs in-process: a first-party service, one simulated-latency
off-site store, and the resolving fetcher. Prints the receipt, the album
page before and after resolution, and where each byte of the original
actually lives.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from r2o.cache import MappingsCache  # noqa: E402
from r2o.codec.png import write_png  # noqa: E402
from r2o.core import (  # noqa: E402
    InProcessFetcher,
    InProcessFirstPartyClient,
    resolve_page,
    write_path,
)
from r2o.firstparty import FirstPartyService  # noqa: E402
from r2o.store import ContentItem, MemoryStore  # noqa: E402


def main() -> int:
    service = FirstPartyService(response_delay_ms=11.0)
    store = MemoryStore(name="demo", simulated_latency=147.0)
    client = InProcessFirstPartyClient(service)
    fetcher = InProcessFetcher(firstparty=service, providers=[store])
    album = service.create_album("demo album")

    pixels = np.random.default_rng(7).integers(0, 256, size=(96, 96),
                                               dtype=np.uint8)
    original = ContentItem(data=write_png(pixels), media_type="image/png")
    receipt = write_path(original, "harbor at dusk", album, store, client)
    print("receipt:")
    print(f"  offsite_locator: {receipt.offsite_locator}")
    print(f"  pseudo_locator:  {receipt.pseudo_locator}")

    placed = service.get_photo_bytes(receipt.photo_id)
    print(f"\noriginal is {len(original.data)} bytes; the first party "
          f"holds a {len(placed)}-byte pseudo-image instead")

    page_url = client.page_url(album)
    before = fetcher.fetch(page_url).data
    cache = MappingsCache()
    after = resolve_page(page_url, fetcher, cache=cache)
    print(f"\nalbum page before resolution ({len(before)} bytes):")
    print(before.decode())
    print(f"album page after resolution ({len(after)} bytes):")
    print(after.decode())

    restored = fetcher.fetch(receipt.offsite_locator)
    print(f"off-site fetch returns the original exactly: "
          f"{restored.data == original.data}")
    print(f"cache now holds {len(cache)} mapping(s); a second resolve "
          f"skips the pseudo object entirely")
    return 0


if __name__ == "__main__":
    sys.exit(main())
