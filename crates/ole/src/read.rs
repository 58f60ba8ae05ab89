//! Compound file parsing.

use crate::consts::*;
use crate::entry::{DirEntry, ObjectType};
use crate::OleError;
use vbadet_faultpoint::{faultpoint, Budget};
use vbadet_metrics::{Counter, Stage};

/// Resource caps applied while parsing a compound file.
///
/// Every field bounds an allocation or a loop that would otherwise be
/// controlled by attacker bytes; overruns surface as
/// [`OleError::LimitExceeded`] rather than memory exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OleLimits {
    /// Maximum number of sectors the file body may contain.
    pub max_sectors: usize,
    /// Maximum number of directory entries.
    pub max_dir_entries: usize,
    /// Maximum bytes read out of any single stream.
    pub max_stream_bytes: usize,
    /// Maximum storage-nesting depth of the directory tree. The tree walk
    /// is iterative (no stack growth either way), so this is purely a
    /// semantic cap: real documents nest a handful of levels, and a
    /// 10k-deep chain is only ever an attack shape.
    pub max_dir_depth: usize,
}

impl Default for OleLimits {
    fn default() -> Self {
        OleLimits {
            // 4 MiSectors × 512 B = 2 GiB of body, the historical cap.
            max_sectors: 1 << 22,
            max_dir_entries: 1 << 16,
            max_stream_bytes: 1 << 28,
            max_dir_depth: 512,
        }
    }
}

/// A parsed compound file.
///
/// Holds the file body as one buffer plus the decoded FAT/miniFAT and
/// directory; stream contents are copied out on demand by
/// [`OleFile::open_stream`].
#[derive(Debug, Clone)]
pub struct OleFile {
    sector_size: usize,
    /// The sectors after the header, back to back; a trailing partial
    /// sector is zero-padded (some writers truncate the final sector).
    body: Vec<u8>,
    fat: Vec<u32>,
    minifat: Vec<u32>,
    entries: Vec<DirEntry>,
    /// Mini stream contents (the root entry's chain), concatenated.
    mini_stream: Vec<u8>,
    limits: OleLimits,
    /// Shared cooperative budget; chain walks charge one unit per sector.
    budget: Budget,
}

fn u16_at(data: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([data[off], data[off + 1]])
}

fn u32_at(data: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]])
}

fn u64_at(data: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Sector `id` of the `unit`-byte sectors in `bytes`.
fn sector_at(bytes: &[u8], unit: usize, id: u32) -> Result<&[u8], OleError> {
    bytes
        .chunks_exact(unit)
        .nth(id as usize)
        .ok_or(OleError::Truncated { sector: id })
}

impl OleFile {
    /// Parses a compound file from `data`.
    ///
    /// # Errors
    ///
    /// Returns an error for a missing signature, malformed header, truncated
    /// sectors, looping sector chains, or a malformed directory.
    pub fn parse(data: &[u8]) -> Result<Self, OleError> {
        Self::parse_budgeted(data, OleLimits::default(), Budget::unlimited())
    }

    /// Like [`OleFile::parse`] but under explicit resource limits, and
    /// charging parsing work — and all later stream reads through the
    /// returned file — against a cooperative scan [`Budget`] (roughly one
    /// fuel unit per sector).
    ///
    /// # Errors
    ///
    /// In addition to the malformed-input errors of [`OleFile::parse`],
    /// returns [`OleError::LimitExceeded`] when the file requests more
    /// sectors, directory entries, or stream bytes than `limits` allows,
    /// and [`OleError::DeadlineExceeded`] when the budget trips.
    pub fn parse_budgeted(
        data: &[u8],
        limits: OleLimits,
        budget: Budget,
    ) -> Result<Self, OleError> {
        faultpoint!("ole::parse", Err(OleError::BadSignature));
        let _t = budget.metrics().time(Stage::OleParseNs);
        if data.len() < 512 || data[..8] != SIGNATURE {
            return Err(OleError::BadSignature);
        }
        let major = u16_at(data, 26);
        let byte_order = u16_at(data, 28);
        if byte_order != 0xFFFE {
            return Err(OleError::BadHeader("byte order mark"));
        }
        let sector_shift = u16_at(data, 30);
        let sector_size = match (major, sector_shift) {
            (3, 9) => 512usize,
            (4, 12) => 4096usize,
            _ => return Err(OleError::BadHeader("unsupported version/sector shift")),
        };
        let mini_shift = u16_at(data, 32);
        if mini_shift != 6 {
            return Err(OleError::BadHeader("mini sector shift"));
        }
        // The header's FAT/DIFAT sector *counts* (offsets 44 and 72) are
        // deliberately ignored: they are attacker-controlled and everything
        // they describe is recoverable from the chains actually present.
        let first_dir_sector = u32_at(data, 48);
        let first_minifat_sector = u32_at(data, 60);
        let num_minifat_sectors = u32_at(data, 64) as usize;
        let first_difat_sector = u32_at(data, 68);

        let body = &data[sector_size.min(data.len())..];
        let sector_count = body.len().div_ceil(sector_size);
        if sector_count > limits.max_sectors {
            return Err(OleError::LimitExceeded {
                what: "sector count",
                limit: limits.max_sectors,
            });
        }
        // Body copy, DIFAT walk and FAT build are all linear in the sector
        // count; one upfront charge covers them.
        budget.charge(sector_count as u64 / 8 + 1)?;
        budget
            .metrics()
            .count(Counter::OleSectors, sector_count as u64);
        let mut body = body.to_vec();
        body.resize(sector_count * sector_size, 0);

        // DIFAT: 109 header entries plus chained DIFAT sectors.
        let mut difat: Vec<u32> = (0..HEADER_DIFAT_ENTRIES)
            .map(|i| u32_at(data, 76 + 4 * i))
            .take_while(|&s| s != FREESECT)
            .collect();
        let entries_per_difat = sector_size / 4 - 1;
        let mut difat_sector = first_difat_sector;
        // Visited-sector guard: `num_difat_sectors` is an unvalidated header
        // field, so the chain is bounded by what physically exists, not by
        // what the header claims.
        let mut difat_visited = vec![false; sector_count];
        while difat_sector <= MAXREGSECT {
            let sector = sector_at(&body, sector_size, difat_sector)?;
            if std::mem::replace(&mut difat_visited[difat_sector as usize], true) {
                return Err(OleError::ChainCycle {
                    start: first_difat_sector,
                });
            }
            budget.metrics().count(Counter::OleDifatSectors, 1);
            for i in 0..entries_per_difat {
                let v = u32_at(sector, 4 * i);
                if v != FREESECT {
                    difat.push(v);
                }
            }
            difat_sector = u32_at(sector, sector_size - 4);
        }

        // FAT: concatenation of all FAT sectors listed in the DIFAT. The
        // allocation is sized by the DIFAT actually present — never by the
        // header's (attacker-controlled) `num_fat_sectors` count.
        let mut fat = Vec::with_capacity(difat.len().min(sector_count) * (sector_size / 4));
        for &fs in difat.iter() {
            if fs > MAXREGSECT {
                continue;
            }
            let sector = sector_at(&body, sector_size, fs)?;
            budget.metrics().count(Counter::OleFatSectors, 1);
            for i in 0..sector_size / 4 {
                fat.push(u32_at(sector, 4 * i));
            }
        }

        let file = OleFile {
            sector_size,
            body,
            fat,
            minifat: Vec::new(),
            entries: Vec::new(),
            mini_stream: Vec::new(),
            limits,
            budget,
        };

        // Directory: bounded by the entry cap instead of `usize::MAX`; the
        // chain walk itself carries a visited-sector guard.
        let dir_cap = limits.max_dir_entries * DIR_ENTRY_SIZE;
        let dir_data = file.read_chain(first_dir_sector, dir_cap.saturating_add(1))?;
        if dir_data.len() > dir_cap {
            return Err(OleError::LimitExceeded {
                what: "directory entries",
                limit: limits.max_dir_entries,
            });
        }
        let mut entries = Vec::new();
        for (id, chunk) in dir_data.chunks_exact(DIR_ENTRY_SIZE).enumerate() {
            entries.push(Self::parse_dir_entry(id as u32, chunk)?);
        }
        if entries.is_empty() || entries[0].object_type != ObjectType::Root {
            return Err(OleError::BadDirEntry {
                id: 0,
                reason: "missing root entry",
            });
        }

        // MiniFAT + mini stream. A file without a miniFAT reads (and
        // counts) no chain for it.
        let minifat_data = if first_minifat_sector > MAXREGSECT {
            Vec::new()
        } else {
            file.read_chain(first_minifat_sector, num_minifat_sectors * sector_size)?
        };
        let minifat: Vec<u32> = minifat_data.chunks_exact(4).map(|c| u32_at(c, 0)).collect();
        let mini_stream = file.read_chain(entries[0].start_sector, entries[0].size as usize)?;

        file.budget.metrics().count(Counter::OleParses, 1);
        file.budget
            .metrics()
            .count(Counter::OleDirEntries, entries.len() as u64);
        Ok(OleFile {
            minifat,
            entries,
            mini_stream,
            ..file
        })
    }

    fn parse_dir_entry(id: u32, raw: &[u8]) -> Result<DirEntry, OleError> {
        let name_len_bytes = u16_at(raw, 64) as usize;
        let object_type = ObjectType::from_u8(raw[66]).ok_or(OleError::BadDirEntry {
            id,
            reason: "invalid object type",
        })?;
        let name = if object_type == ObjectType::Unknown || name_len_bytes < 2 {
            String::new()
        } else {
            if name_len_bytes > 64 || !name_len_bytes.is_multiple_of(2) {
                return Err(OleError::BadDirEntry {
                    id,
                    reason: "bad name length",
                });
            }
            let units: Vec<u16> = (0..(name_len_bytes - 2) / 2)
                .map(|i| u16_at(raw, 2 * i))
                .collect();
            String::from_utf16_lossy(&units)
        };
        Ok(DirEntry {
            name,
            object_type,
            left: u32_at(raw, 68),
            right: u32_at(raw, 72),
            child: u32_at(raw, 76),
            start_sector: u32_at(raw, 116),
            size: u64_at(raw, 120),
        })
    }

    /// Follows a FAT chain through the body, returning at most `max_len`
    /// bytes.
    fn read_chain(&self, start: u32, max_len: usize) -> Result<Vec<u8>, OleError> {
        faultpoint!(
            "ole::read_chain",
            Err(OleError::Truncated { sector: start })
        );
        self.walk(&self.fat, &self.body, self.sector_size, start, max_len)
    }

    /// Follows the chain from `start` through `table` (the FAT or the
    /// miniFAT) over the `unit`-byte sectors of `bytes` (the body or the
    /// mini stream), returning at most `max_len` bytes. A visited-sector
    /// guard turns cyclic or self-referencing chains into
    /// [`OleError::ChainCycle`] instead of an unbounded walk.
    fn walk(
        &self,
        table: &[u32],
        bytes: &[u8],
        unit: usize,
        start: u32,
        max_len: usize,
    ) -> Result<Vec<u8>, OleError> {
        self.budget.metrics().count(Counter::OleChainReads, 1);
        let mut out = Vec::new();
        let mut sector = start;
        let mut visited = vec![false; bytes.len() / unit];
        while sector <= MAXREGSECT {
            self.budget.charge(1)?;
            let data = sector_at(bytes, unit, sector)?;
            if std::mem::replace(&mut visited[sector as usize], true) {
                return Err(OleError::ChainCycle { start });
            }
            out.extend_from_slice(data);
            sector = *table
                .get(sector as usize)
                .ok_or(OleError::Truncated { sector })?;
            if out.len() >= max_len {
                break;
            }
        }
        out.truncate(max_len);
        self.budget
            .metrics()
            .count(Counter::OleChainBytes, out.len() as u64);
        Ok(out)
    }

    /// All directory entries, including unallocated ones, indexed by entry id.
    pub fn entries(&self) -> &[DirEntry] {
        &self.entries
    }

    /// The root storage entry.
    pub fn root(&self) -> &DirEntry {
        &self.entries[0]
    }

    /// The sector size of the parsed file (512 or 4096).
    pub fn sector_size(&self) -> usize {
        self.sector_size
    }

    /// Resolves a `/`-separated path to a directory entry id.
    fn resolve(&self, path: &str) -> Result<u32, OleError> {
        let mut current = 0u32; // root
        for component in path.split('/').filter(|c| !c.is_empty()) {
            let storage = &self.entries[current as usize];
            if !storage.is_storage() {
                return Err(OleError::WrongType(path.to_string()));
            }
            current = self
                .find_child(storage.child, component)
                .ok_or_else(|| OleError::NotFound(path.to_string()))?;
        }
        Ok(current)
    }

    /// Searches a sibling tree for `name` (BST walk with a linear fallback:
    /// real-world writers frequently emit unbalanced or mis-colored trees,
    /// so we do not rely on the BST invariant).
    fn find_child(&self, child: u32, name: &str) -> Option<u32> {
        let mut stack = vec![child];
        let mut visited = 0usize;
        while let Some(id) = stack.pop() {
            if id == NOSTREAM || (id as usize) >= self.entries.len() {
                continue;
            }
            visited += 1;
            if visited > self.entries.len() {
                return None; // malformed cyclic tree
            }
            let entry = &self.entries[id as usize];
            if crate::entry::name_cmp(&entry.name, name) == std::cmp::Ordering::Equal {
                return Some(id);
            }
            stack.push(entry.left);
            stack.push(entry.right);
        }
        None
    }

    /// Reads the stream at a `/`-separated path, e.g. `"Macros/VBA/dir"`.
    ///
    /// # Errors
    ///
    /// Fails when the path does not exist, names a storage, or the underlying
    /// chains are malformed. A declared size larger than the body (or, for
    /// a small stream, the mini stream) holds is [`OleError::Truncated`]
    /// at the first sector past its end, whatever the stream-size cap.
    pub fn open_stream(&self, path: &str) -> Result<Vec<u8>, OleError> {
        let entry = &self.entries[self.resolve(path)? as usize];
        if !entry.is_stream() {
            return Err(OleError::WrongType(path.to_string()));
        }
        let mini = entry.size < MINI_STREAM_CUTOFF as u64;
        let (bytes, unit) = if mini {
            (&self.mini_stream, MINI_SECTOR_SIZE)
        } else {
            (&self.body, self.sector_size)
        };
        if entry.size > bytes.len() as u64 {
            return Err(OleError::Truncated {
                sector: (bytes.len() / unit) as u32,
            });
        }
        if entry.size > self.limits.max_stream_bytes as u64 {
            return Err(OleError::LimitExceeded {
                what: "stream size",
                limit: self.limits.max_stream_bytes,
            });
        }
        let size = entry.size as usize;
        if mini {
            self.walk(&self.minifat, bytes, unit, entry.start_sector, size)
        } else {
            self.read_chain(entry.start_sector, size)
        }
    }

    /// Whether a stream or storage exists at `path`.
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// Returns the `/`-separated paths of all streams, in directory order.
    ///
    /// The walk is iterative — an explicit work stack, never recursion —
    /// so hostile trees cannot exhaust the thread stack regardless of the
    /// configured depth cap.
    ///
    /// # Errors
    ///
    /// Returns [`OleError::LimitExceeded`] when storage nesting exceeds
    /// [`OleLimits::max_dir_depth`].
    pub fn stream_paths(&self) -> Result<Vec<String>, OleError> {
        enum Work {
            /// A stream path ready to emit.
            Emit(String),
            /// A storage to expand: (entry id, path prefix, nesting depth).
            Expand(u32, String, usize),
        }
        let mut out = Vec::new();
        let mut work = vec![Work::Expand(0, String::new(), 0)];
        while let Some(item) = work.pop() {
            let (id, prefix, depth) = match item {
                Work::Emit(path) => {
                    out.push(path);
                    continue;
                }
                Work::Expand(id, prefix, depth) => (id, prefix, depth),
            };
            if depth > self.limits.max_dir_depth {
                return Err(OleError::LimitExceeded {
                    what: "directory depth",
                    limit: self.limits.max_dir_depth,
                });
            }
            let entry = &self.entries[id as usize];
            // Collect this storage's children via the sibling tree.
            let mut children = Vec::new();
            let mut stack = vec![entry.child];
            while let Some(cid) = stack.pop() {
                if cid == NOSTREAM || (cid as usize) >= self.entries.len() {
                    continue;
                }
                if children.len() > self.entries.len() {
                    // Malformed cyclic sibling tree: stop expanding it.
                    children.clear();
                    break;
                }
                children.push(cid);
                let c = &self.entries[cid as usize];
                stack.push(c.left);
                stack.push(c.right);
            }
            children.sort_unstable();
            // LIFO stack: push in reverse so children surface in order.
            for cid in children.into_iter().rev() {
                let c = &self.entries[cid as usize];
                let path = if prefix.is_empty() {
                    c.name.clone()
                } else {
                    format!("{prefix}/{}", c.name)
                };
                match c.object_type {
                    ObjectType::Stream => work.push(Work::Emit(path)),
                    ObjectType::Storage => work.push(Work::Expand(cid, path, depth + 1)),
                    _ => {}
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_cfb() {
        assert!(matches!(
            OleFile::parse(b"PK\x03\x04"),
            Err(OleError::BadSignature)
        ));
        assert!(matches!(
            OleFile::parse(&[0u8; 600]),
            Err(OleError::BadSignature)
        ));
    }

    #[test]
    fn rejects_bad_header_fields() {
        let mut data = vec![0u8; 1024];
        data[..8].copy_from_slice(&SIGNATURE);
        // Valid signature but zeroed header fields -> bad byte order.
        assert!(matches!(
            OleFile::parse(&data),
            Err(OleError::BadHeader("byte order mark"))
        ));
    }

    #[test]
    fn garbage_after_signature_never_panics() {
        let mut state = 12345u64;
        for len in [512usize, 700, 1536, 4096] {
            for _ in 0..40 {
                let mut data: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                data[..8].copy_from_slice(&SIGNATURE);
                let _ = OleFile::parse(&data); // must not panic
            }
        }
    }

    #[test]
    fn a_declared_size_past_the_body_is_truncation_before_the_cap() {
        // One regular stream: patch the size field of its directory entry,
        // in the first directory sector.
        let mut b = crate::OleBuilder::new();
        b.add_stream("Big", &[b'x'; 5000]).unwrap();
        let bytes = b.build();
        let ole = OleFile::parse(&bytes).unwrap();
        let id = ole.resolve("Big").unwrap() as usize;
        let at = 512 + 512 * u32_at(&bytes, 48) as usize + 128 * id + 120;
        let held = ole.body.len() as u32 / 512;
        let mut patched = bytes.clone();
        patched[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let ole = OleFile::parse(&patched).unwrap();
        assert_eq!(
            ole.open_stream("Big"),
            Err(OleError::Truncated { sector: held })
        );
        // A size the body holds but the cap refuses is still a cap.
        let limits = OleLimits {
            max_stream_bytes: 4096,
            ..OleLimits::default()
        };
        let ole = OleFile::parse_budgeted(&bytes, limits, Budget::unlimited()).unwrap();
        assert!(matches!(
            ole.open_stream("Big"),
            Err(OleError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn mini_chain_cycles_and_overruns_are_typed() {
        // A module stream under the cutoff lives in the mini stream; its
        // first miniFAT entry is patched in place, in the one miniFAT
        // sector the builder writes.
        let mut b = crate::OleBuilder::new();
        b.add_stream("VBA/dir", &[0x01; 100]).unwrap();
        b.add_stream("VBA/Module1", &[b'x'; 300]).unwrap();
        let bytes = b.build();
        let ole = OleFile::parse(&bytes).unwrap();
        let start = ole.entries()[ole.resolve("VBA/Module1").unwrap() as usize].start_sector;
        let at = 512 + 512 * u32_at(&bytes, 60) as usize + 4 * start as usize;
        let past = (ole.root().size / MINI_SECTOR_SIZE as u64) as u32;
        for (next, want) in [
            (start, OleError::ChainCycle { start }),
            (past, OleError::Truncated { sector: past }),
        ] {
            let mut patched = bytes.clone();
            patched[at..at + 4].copy_from_slice(&next.to_le_bytes());
            let ole = OleFile::parse(&patched).unwrap();
            assert_eq!(ole.open_stream("VBA/Module1"), Err(want));
        }
    }
}
