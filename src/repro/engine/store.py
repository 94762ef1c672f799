"""Document store: named collections of XML documents held as node tables.

A stored document is **one** representation: its binary node table
(:class:`~repro.datamodel.binary.BinaryXMLDocument`), built once at
store time over the collection's shared string pool, plus its name,
origin and ``size``. Everything that reads a document reads the table:
the indexes ingest it, query evaluation runs on it in place through
:class:`~repro.datamodel.binary.NodeHandle`, and result nodes serialize
from its spans — no tree is built on access ("some pre-processing
operations (e.g., parsing) are carried out for each XML tree", §5,
survives as the engine's modeled clock: ``per_document_overhead`` plus a
per-byte term). Text exists only at the edges: a caller that needs it
(shipping to a remote site, migration) writes
``serialize(stored.binary.root)``.

``size`` is the document's serialized UTF-8 length, measured once when
it is stored — the unit of the planner's statistics and of the modeled
clock's per-byte term. A document handed over as a tree is measured on
the table just encoded (:func:`~repro.xmltext.serializer.serialized_size`
of its root: one pass, no text built); text handed over is as long as
it came.

Optional disk persistence keeps each collection in a directory of
``.xml`` files (plus ``<name>.xml.pxb`` node tables and one
``_pool.bin`` string pool) and a small metadata file, surviving engine
restarts without reparsing. Stores written before the binary encoding
existed — bare ``.xml`` files — load fine: the table is rebuilt by a
one-time parse.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Optional

from repro.datamodel.binary import BinaryXMLDocument, StringPool
from repro.datamodel.document import XMLDocument
from repro.engine.indexes import CollectionIndex
from repro.errors import CollectionNotFoundError, DocumentNotFoundError, StorageError
from repro.xmltext.parser import parse_xml
from repro.xmltext.serializer import serialize, serialized_size


class StoredDocument:
    """One document's node table plus its catalog metadata.

    ``binary`` is the preorder node table over the owning collection's
    string pool; ``size`` the serialized UTF-8 length it was stored with.
    """

    __slots__ = ("name", "origin", "binary", "size")

    def __init__(
        self,
        name: str,
        binary: BinaryXMLDocument,
        size: int,
        origin: Optional[str] = None,
    ):
        self.name = name
        self.origin = origin or name
        self.binary = binary
        self.size = size


class StoredCollection:
    """A named set of stored documents with their index.

    Store order is insertion order (a replaced document moves to the
    end); ``_sequence`` numbers each live name in that order, so a few
    names are put in store order without listing the collection
    (:meth:`in_store_order`).
    """

    def __init__(self, name: str, pool: Optional[StringPool] = None):
        self.name = name
        self.pool = pool if pool is not None else StringPool()
        self._documents: dict[str, StoredDocument] = {}
        self._sequence: dict[str, int] = {}
        self._next = 0
        self.index = CollectionIndex()

    # ------------------------------------------------------------------
    def put(self, stored: StoredDocument) -> None:
        """Insert (or replace) a document; the index ingests its table."""
        if stored.name in self._documents:
            self.remove(stored.name)
        self._documents[stored.name] = stored
        self._sequence[stored.name] = self._next
        self._next += 1
        self.index.add_document(stored.name, stored.binary)

    def remove(self, name: str) -> None:
        if name not in self._documents:
            raise DocumentNotFoundError(
                f"document {name!r} not in collection {self.name!r}"
            )
        del self._documents[name]
        del self._sequence[name]
        self.index.remove_document(name)

    def in_store_order(self, names: Iterable[str]) -> list[str]:
        """The live ones of ``names``, in store order: one probe per name,
        so a name retired meanwhile is dropped, never a ``KeyError``."""
        sequence = self._sequence.get
        ranked = [
            (rank, name)
            for name in names
            if (rank := sequence(name)) is not None
        ]
        ranked.sort()
        return [name for _, name in ranked]

    def get(self, name: str) -> StoredDocument:
        try:
            return self._documents[name]
        except KeyError:
            raise DocumentNotFoundError(
                f"document {name!r} not in collection {self.name!r}"
            ) from None

    def names(self) -> list[str]:
        return list(self._documents.keys())

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, name: str) -> bool:
        return name in self._documents

    def total_bytes(self) -> int:
        return sum(doc.size for doc in self._documents.values())


class DocumentStore:
    """All collections of one engine instance, optionally disk-backed."""

    def __init__(self, storage_dir: Optional[str | Path] = None):
        self._collections: dict[str, StoredCollection] = {}
        self._storage_dir = Path(storage_dir) if storage_dir else None
        if self._storage_dir is not None:
            self._storage_dir.mkdir(parents=True, exist_ok=True)
            self._load_from_disk()

    # ------------------------------------------------------------------
    # Collection management
    # ------------------------------------------------------------------
    def create_collection(self, name: str) -> StoredCollection:
        if name in self._collections:
            raise StorageError(f"collection {name!r} already exists")
        collection = StoredCollection(name)
        self._collections[name] = collection
        if self._storage_dir is not None:
            (self._storage_dir / name).mkdir(parents=True, exist_ok=True)
            self._write_metadata(name)
        return collection

    def drop_collection(self, name: str) -> None:
        self.collection(name)  # raise if absent
        del self._collections[name]
        if self._storage_dir is not None:
            directory = self._storage_dir / name
            if directory.exists():
                for child in directory.iterdir():
                    child.unlink()
                directory.rmdir()

    def collection(self, name: str) -> StoredCollection:
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionNotFoundError(f"no collection named {name!r}") from None

    def has_collection(self, name: str) -> bool:
        return name in self._collections

    def collection_names(self) -> list[str]:
        return list(self._collections.keys())

    # ------------------------------------------------------------------
    # Document management
    # ------------------------------------------------------------------
    def store_document(
        self,
        collection_name: str,
        document: XMLDocument | str | bytes,
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> StoredDocument:
        """Encode (parsing text if that is what came) and store a
        document; returns the record.

        A tree is only read: its node table is encoded and its ``size``
        measured on that table. It is serialized only when a
        ``storage_dir`` needs the ``.xml`` file.
        """
        collection = self.collection(collection_name)
        data: Optional[bytes] = None
        if isinstance(document, XMLDocument):
            name = name or document.name
            origin = origin or document.origin
        else:
            data = document.encode("utf-8") if isinstance(document, str) else document
            document = _parse(data, name)
        if name is None:
            name = f"{collection_name}-{len(collection):06d}.xml"
        binary = BinaryXMLDocument.encode(document, collection.pool)
        stored = StoredDocument(
            name,
            binary,
            serialized_size(binary.root) if data is None else len(data),
            origin,
        )
        collection.put(stored)
        if self._storage_dir is not None:
            if data is None:
                data = serialize(binary.root).encode("utf-8")
            directory = self._storage_dir / collection_name
            (directory / name).write_bytes(data)
            (directory / (name + ".pxb")).write_bytes(stored.binary.to_bytes())
            # The pool is append-only, so rewriting it after each store
            # keeps every previously written table decodable.
            (directory / "_pool.bin").write_bytes(collection.pool.to_bytes())
            self._write_metadata(collection_name)
        return stored

    def load_document(self, collection_name: str, name: str) -> StoredDocument:
        return self.collection(collection_name).get(name)

    def remove_document(self, collection_name: str, name: str) -> None:
        self.collection(collection_name).remove(name)
        if self._storage_dir is not None:
            directory = self._storage_dir / collection_name
            for path in (directory / name, directory / (name + ".pxb")):
                if path.exists():
                    path.unlink()
            self._write_metadata(collection_name)

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    def _metadata_path(self, collection_name: str) -> Path:
        assert self._storage_dir is not None
        return self._storage_dir / collection_name / "_meta.json"

    def _write_metadata(self, collection_name: str) -> None:
        collection = self._collections[collection_name]
        meta = {
            name: {"origin": collection.get(name).origin}
            for name in collection.names()
        }
        self._metadata_path(collection_name).write_text(json.dumps(meta))

    def _load_from_disk(self) -> None:
        """Rebuild collections binary-first: when a ``.pxb`` node table
        and the pool are on disk, reload decodes them and never touches
        the XML text (its length is the file's); documents missing a
        table (pre-binary stores, or a table that fails to decode) fall
        back to a one-time parse."""
        assert self._storage_dir is not None
        for directory in sorted(self._storage_dir.iterdir()):
            if not directory.is_dir():
                continue
            pool: Optional[StringPool] = None
            pool_path = directory / "_pool.bin"
            if pool_path.exists():
                try:
                    pool = StringPool.from_bytes(pool_path.read_bytes())
                except (ValueError, struct.error, UnicodeDecodeError):
                    pool = None
            collection = StoredCollection(directory.name, pool=pool)
            self._collections[directory.name] = collection
            meta_path = directory / "_meta.json"
            meta = (
                json.loads(meta_path.read_text()) if meta_path.exists() else {}
            )
            for path in sorted(directory.glob("*.xml")):
                binary: Optional[BinaryXMLDocument] = None
                table_path = directory / (path.name + ".pxb")
                if pool is not None and table_path.exists():
                    try:
                        binary = BinaryXMLDocument.from_bytes(
                            table_path.read_bytes(), collection.pool
                        )
                    except (ValueError, struct.error):
                        binary = None
                if binary is None:
                    binary = BinaryXMLDocument.encode(
                        _parse(path.read_bytes(), path.name), collection.pool
                    )
                collection.put(
                    StoredDocument(
                        path.name,
                        binary,
                        path.stat().st_size,
                        meta.get(path.name, {}).get("origin"),
                    )
                )


def _parse(data: bytes, name: Optional[str]) -> XMLDocument:
    return parse_xml(data.decode("utf-8"), name=name)
