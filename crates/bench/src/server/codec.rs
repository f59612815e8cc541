//! The wire codec and the serving core: [`Key`] parsing, frame parsing,
//! response formatting, and [`SortEngine`], which packs a batch's keys
//! into plane words, runs the tape once per plane group and decodes the
//! sorted keys.
//!
//! Every stage works a word at a time: a key of up to 8 characters is
//! classified with one `u64` load ([`swar_planes`]), the lane ↔ port
//! crossing of pack and decode is a 64×64 bit transpose per 64-port tile
//! ([`PortTiles`]), and an output key is spelled 4 characters per table
//! lookup ([`SPELL`]).

use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use mcs_gray::valid::{valid_rank, InvalidStringError};
use mcs_gray::ValidString;
use mcs_logic::{PlaneWidth, Trit, TritWord};
use mcs_netlist::{EvalTape, Netlist, TapeScratch};

use super::queue::{InlineVec, Job};
use super::stats::ServerStats;
use super::{validate, FrameError, Key, ServerConfig, ServerError};
use crate::engine::{Engine, EngineError, PortTiles};
use crate::metrics::nanos_u64;

impl Key {
    /// The key with the given planes, if they spell a valid string of
    /// `width` bits; bits at or above `width` are ignored.
    fn from_planes(can_zero: u64, can_one: u64, width: usize) -> Result<Key, InvalidStringError> {
        let rank = valid_rank(can_zero, can_one, width)?;
        let mask = (1u64 << width) - 1;
        Ok(Key {
            can_zero: can_zero & mask,
            can_one: can_one & mask,
            rank,
            width: width as u8,
        })
    }

    /// Bit width `B`.
    pub fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// Rank in the total order on valid strings, as [`ValidString::rank`].
    pub fn rank(&self) -> u64 {
        self.rank
    }

    fn push_to(&self, out: &mut Vec<u8>) {
        push_spelled(out, self.can_zero, self.can_one, self.width());
    }
}

/// Per pair of plane nibbles, the four characters they spell, MSB first:
/// entry `z | o << 4` spells `can_zero` nibble `z` and `can_one` nibble
/// `o`. A bit in neither plane (only ever in a broken output lane) shows
/// as `?`.
const SPELL: [[u8; 4]; 256] = {
    let mut table = [[0u8; 4]; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = 0;
        while c < 4 {
            let shift = 3 - c;
            table[i][c] = match ((i >> shift) & 1, (i >> (4 + shift)) & 1) {
                (1, 0) => b'0',
                (0, 1) => b'1',
                (1, 1) => b'M',
                _ => b'?',
            };
            c += 1;
        }
        i += 1;
    }
    table
};

/// Appends the `width` (`1..=63`) characters spelled by two plane masks,
/// MSB first, one [`SPELL`] lookup per 4 characters.
pub(super) fn push_spelled(out: &mut Vec<u8>, can_zero: u64, can_one: u64, width: usize) {
    let end = out.len() + width;
    let (mut z, mut o) = (can_zero << (64 - width), can_one << (64 - width));
    for _ in 0..width.div_ceil(4) {
        out.extend_from_slice(&SPELL[(z >> 60 | (o >> 60) << 4) as usize]);
        z <<= 4;
        o <<= 4;
    }
    out.truncate(end);
}

/// Per byte, the planes of the trit it spells (bit 0: may read `0`,
/// bit 1: may read `1`), or `0` for a byte that is not a trit character —
/// [`Trit::from_char`]'s alphabet, tabulated.
const TRIT_BYTE_PLANES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = match Trit::from_char(b as u8 as char) {
            Ok(Trit::Zero) => 0b01,
            Ok(Trit::One) => 0b10,
            Ok(Trit::Meta) => 0b11,
            Err(_) => 0,
        };
        b += 1;
    }
    table
};

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `x` that equals `c`, exactly: no borrow
/// crosses a byte.
pub(super) fn bytes_equal(x: u64, c: u8) -> u64 {
    const LOW7: u64 = !HIGH;
    let t = x ^ (ONES * u64::from(c));
    !(((t & LOW7) + LOW7) | t) & HIGH
}

/// The planes of a token of 1 to 8 bytes, classified with one `u64` load:
/// a byte-wise compare against each trit character of [`Trit::from_char`]
/// (`0`, `1`, and `M`/`m`/`X`/`x` after folding case), then one multiply
/// per plane gathers the bytes' flags into bits, MSB first. `None` if some
/// byte is not a trit character.
pub(super) fn swar_planes(token: &[u8]) -> Option<(u64, u64)> {
    let n = token.len();
    debug_assert!((1..=8).contains(&n));
    let x = match <[u8; 8]>::try_from(token) {
        Ok(word) => u64::from_le_bytes(word),
        Err(_) => {
            let mut word = [0u8; 8];
            word[..n].copy_from_slice(token);
            u64::from_le_bytes(word)
        }
    };
    let eq = bytes_equal;
    let folded = x | (ONES * 0x20);
    let meta = eq(folded, b'm') | eq(folded, b'x');
    let (zero, one) = (eq(x, b'0') | meta, eq(x, b'1') | meta);
    let used = HIGH >> (8 * (8 - n));
    if (zero | one) & used != used {
        return None;
    }
    // Byte `i`'s flag lands on bit `63 − i`, so character 0 ends up the
    // most significant of the `n` bits.
    let gather = |m: u64| ((m >> 7).wrapping_mul(0x8040_2010_0804_0201) >> 56) >> (8 - n);
    Some((gather(zero), gather(one)))
}

impl FromStr for Key {
    type Err = InvalidStringError;

    /// Parses a token word-at-a-time when it has at most 8 bytes (one
    /// `u64` load), in one pass over its bytes otherwise; the width is
    /// the token length. Accepts and rejects exactly what `ValidString`
    /// does, with the same error.
    fn from_str(s: &str) -> Result<Key, InvalidStringError> {
        let bytes = s.as_bytes();
        let planes = if (1..=8).contains(&bytes.len()) {
            swar_planes(bytes)
        } else {
            let (mut can_zero, mut can_one, mut bad) = (0u64, 0u64, false);
            // Table lookups, not a `match`: random key bytes would
            // mispredict a branch per character.
            for &b in bytes {
                let planes = TRIT_BYTE_PLANES[usize::from(b)];
                bad |= planes == 0;
                can_zero = (can_zero << 1) | u64::from(planes & 1);
                can_one = (can_one << 1) | u64::from(planes >> 1);
            }
            (!bad && s.len() <= 63).then_some((can_zero, can_one))
        };
        match planes {
            Some((can_zero, can_one)) => Key::from_planes(can_zero, can_one, s.len()),
            // The cold path: `ValidString` names the offending character
            // (it may be multi-byte) or the width.
            None => s.parse::<ValidString>().map(|v| Key::from(&v)),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut chars = Vec::with_capacity(self.width());
        self.push_to(&mut chars);
        f.write_str(&String::from_utf8_lossy(&chars))
    }
}

impl From<&ValidString> for Key {
    fn from(v: &ValidString) -> Key {
        let (can_zero, can_one) = v.planes();
        Key {
            can_zero,
            can_one,
            rank: v.rank(),
            width: v.width() as u8,
        }
    }
}

/// A parsed `sort` request: opaque client id plus 1 ..= `channels` keys.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Request {
    /// Client token, echoed back verbatim on the response line.
    pub id: String,
    /// The keys to sort, in arrival order.
    pub keys: Vec<Key>,
}

/// One parsed frame of the line protocol.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum Frame {
    /// A sort request.
    Sort(Request),
    /// A live statistics snapshot request.
    Stats {
        /// Client token (`-` if omitted).
        id: String,
    },
    /// Graceful drain-then-exit.
    Shutdown {
        /// Client token (`-` if omitted).
        id: String,
    },
}

/// One line of the protocol as the shared parser sees it: the frame, with
/// ids borrowed from the line and a `sort` frame's keys left in the
/// caller's buffer.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Parsed<'a> {
    /// A blank line or comment: no response owed.
    Blank,
    /// A sort request.
    Sort {
        /// Client token.
        id: &'a str,
    },
    /// A live statistics snapshot request.
    Stats {
        /// Client token (`-` if omitted).
        id: &'a str,
    },
    /// Graceful drain-then-exit.
    Shutdown {
        /// Client token (`-` if omitted).
        id: &'a str,
    },
}

/// Refuses a frame of `bytes` bytes over the configured bound.
pub(super) fn check_frame_len(bytes: usize, cfg: &ServerConfig) -> Result<(), FrameError> {
    if bytes > cfg.max_frame_bytes {
        return Err(FrameError::Oversized {
            bytes,
            max: cfg.max_frame_bytes,
        });
    }
    Ok(())
}

/// Parses one line of the protocol. `Ok(None)` is a blank line or comment
/// (no response owed); errors are per-frame wire rejections.
///
/// # Errors
///
/// See [`FrameError`].
pub fn parse_frame(line: &str, cfg: &ServerConfig) -> Result<Option<Frame>, FrameError> {
    check_frame_len(line.len(), cfg)?;
    let mut keys = Vec::with_capacity(cfg.channels);
    Ok(match parse_line(line, cfg, &mut keys)? {
        Parsed::Blank => None,
        Parsed::Sort { id } => Some(Frame::Sort(Request {
            id: id.to_string(),
            keys,
        })),
        Parsed::Stats { id } => Some(Frame::Stats { id: id.to_string() }),
        Parsed::Shutdown { id } => Some(Frame::Shutdown { id: id.to_string() }),
    })
}

/// Where the frame parser puts a `sort` frame's keys: a [`Request`]'s
/// `Vec`, or a job's inline keys.
pub(super) trait KeySink {
    fn push(&mut self, key: Key);
    fn len(&self) -> usize;
}

impl KeySink for Vec<Key> {
    fn push(&mut self, key: Key) {
        Vec::push(self, key);
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }
}

impl<const N: usize> KeySink for InlineVec<Key, N> {
    fn push(&mut self, key: Key) {
        InlineVec::push(self, key);
    }

    fn len(&self) -> usize {
        InlineVec::len(self)
    }
}

/// The one frame parser, behind [`parse_frame`] and the connection reader:
/// parses a line whose length is already checked, pushing a `sort` frame's
/// keys onto `keys` (which must start empty).
///
/// # Errors
///
/// See [`FrameError`].
pub(super) fn parse_line<'a>(
    line: &'a str,
    cfg: &ServerConfig,
    keys: &mut impl KeySink,
) -> Result<Parsed<'a>, FrameError> {
    let line = line.trim_end_matches(['\r', '\n']);
    let mut tokens = line.split_ascii_whitespace();
    let verb = match tokens.next() {
        None => return Ok(Parsed::Blank),
        Some(v) if v.starts_with('#') => return Ok(Parsed::Blank),
        Some(v) => v,
    };
    match verb {
        "sort" => {
            let id = tokens.next().ok_or_else(|| FrameError::Malformed {
                reason: "sort frame is missing the request id".into(),
            })?;
            for (index, tok) in tokens.enumerate() {
                let key: Key = tok.parse().map_err(|e| FrameError::BadKey {
                    index,
                    detail: format!("{tok:?} is not a valid string: {e}"),
                })?;
                if key.width() != cfg.width {
                    return Err(FrameError::BadKey {
                        index,
                        detail: format!(
                            "{tok:?} has width {}, server sorts width {}",
                            key.width(),
                            cfg.width
                        ),
                    });
                }
                keys.push(key);
            }
            if keys.len() == 0 {
                return Err(FrameError::Empty);
            }
            if keys.len() > cfg.channels {
                return Err(FrameError::TooManyKeys {
                    got: keys.len(),
                    max: cfg.channels,
                });
            }
            Ok(Parsed::Sort { id })
        }
        "stats" => Ok(Parsed::Stats {
            id: tokens.next().unwrap_or("-"),
        }),
        "shutdown" => Ok(Parsed::Shutdown {
            id: tokens.next().unwrap_or("-"),
        }),
        other => Err(FrameError::Malformed {
            reason: format!("unknown verb {other:?}"),
        }),
    }
}

/// Bytes of the `ok` line of `sorted`, without its newline.
pub(super) fn ok_len(id: &[u8], sorted: &[Key]) -> usize {
    3 + id.len() + sorted.iter().map(|k| 1 + k.width()).sum::<usize>()
}

/// Appends the `ok` line of a served request (without newline) to `out`,
/// each key spelled straight from its planes.
pub(super) fn push_ok(out: &mut Vec<u8>, id: &[u8], sorted: &[Key]) {
    out.extend_from_slice(b"ok ");
    out.extend_from_slice(id);
    for key in sorted {
        out.push(b' ');
        key.push_to(out);
    }
}

/// Formats the `ok` response line for a served request, sized up front
/// (with room for the writer's newline) so it is built without regrowth.
pub fn format_ok(id: &str, sorted: &[Key]) -> String {
    let mut line = Vec::with_capacity(ok_len(id.as_bytes(), sorted) + 1);
    push_ok(&mut line, id.as_bytes(), sorted);
    // `id` is UTF-8 and every spelled character ASCII.
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Formats the `err` response line for a rejected request.
pub fn format_err(id: &str, e: &FrameError) -> String {
    format!("err {id} {} {e}", e.code())
}

/// The serving wrapper of the verified [`Engine`]: the engine plus the
/// padding row that lets short requests share a plane with full ones.
/// Shared read-only across workers; each worker owns a scratch.
pub struct SortEngine {
    pub(super) cfg: ServerConfig,
    engine: Engine,
    /// The maximum valid string — free channels of a short request are
    /// padded with it so the sorted prefix is exactly the request.
    pad: Key,
}

impl SortEngine {
    /// Builds the engine for `cfg` from the stock cell network (optimal
    /// table for small `n`, Batcher odd-even beyond) through
    /// [`Engine::for_cell`], verifying network and circuit before anything
    /// is served.
    ///
    /// # Errors
    ///
    /// See [`ServerError`]; nothing is served unless verification passes.
    pub fn new(cfg: ServerConfig) -> Result<SortEngine, ServerError> {
        validate(&cfg)?;
        let engine = Engine::for_cell(cfg.channels, cfg.width, cfg.kernel)?;
        SortEngine::with_engine(cfg, engine)
    }

    /// Builds the engine from an existing sorting netlist — e.g. an
    /// optimized golden or zoo artifact loaded via
    /// [`crate::artifact::load_netlist`] — through [`Engine::from_netlist`],
    /// which re-verifies it before it serves a single request.
    ///
    /// # Errors
    ///
    /// See [`ServerError`].
    pub fn from_netlist(cfg: ServerConfig, circuit: Netlist) -> Result<SortEngine, ServerError> {
        validate(&cfg)?;
        let engine = Engine::from_netlist(cfg.channels, cfg.width, cfg.kernel, circuit)?;
        SortEngine::with_engine(cfg, engine)
    }

    fn with_engine(cfg: ServerConfig, engine: Engine) -> Result<SortEngine, ServerError> {
        let pad = ValidString::stable(cfg.width, (1u64 << cfg.width) - 1).map_err(|e| {
            EngineError::UnsupportedCell {
                channels: cfg.channels,
                width: cfg.width,
                reason: e.to_string(),
            }
        })?;
        let pad = Key::from(&pad);
        Ok(SortEngine { cfg, engine, pad })
    }

    /// The configuration the engine was built for.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Allocates one worker's (or connection's) reusable scratch at
    /// [`PlaneWidth::default`] for the configured kernel backend.
    pub fn scratch(&self) -> TapeScratch {
        self.engine.scratch(PlaneWidth::default())
    }

    /// Sorts a coalesced batch: request `i` occupies lane `i` of one shared
    /// plane pass. Returns each request's keys in ascending order.
    ///
    /// Per-request results are a function of that request alone — lanes are
    /// independent in the word-parallel evaluator — which is the whole
    /// determinism contract: packing, worker count and kernel tier cannot
    /// change any response.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooManyKeys`] or [`FrameError::BadKey`] if a request
    /// does not fit the circuit (never for a parsed frame), and
    /// [`FrameError::Internal`] if the tape rejects the batch or an output
    /// lane is not a valid string — both impossible for a verified circuit.
    pub fn sort_batch(
        &self,
        requests: &[Request],
        scratch: &mut TapeScratch,
    ) -> Result<Vec<Vec<Key>>, FrameError> {
        self.sort_batch_recording(requests, scratch, None)
    }

    /// [`SortEngine::sort_batch`] with per-stage timing: the plane-pack and
    /// tape-eval durations of this batch are recorded into `stats` (when
    /// given). Timing is observational — the sorted results are identical
    /// with or without it.
    ///
    /// # Errors
    ///
    /// See [`SortEngine::sort_batch`].
    pub fn sort_batch_recording(
        &self,
        requests: &[Request],
        scratch: &mut TapeScratch,
        stats: Option<&ServerStats>,
    ) -> Result<Vec<Vec<Key>>, FrameError> {
        let mut sorted = Vec::new();
        let mut tiles = PortTiles::default();
        self.sort_lanes(requests, scratch, &mut tiles, stats, &mut sorted)?;
        let mut rest = &sorted[..];
        Ok(requests
            .iter()
            .map(|r| {
                let (keys, tail) = rest.split_at(r.keys.len());
                rest = tail;
                keys.to_vec()
            })
            .collect())
    }

    /// The one serving core, shared by the worker and
    /// [`SortEngine::sort_batch_recording`]: see [`sort_groups`]. Nothing
    /// is appended to `sorted` unless the whole batch succeeds.
    pub(super) fn sort_lanes<L: Lane>(
        &self,
        batch: &[L],
        scratch: &mut TapeScratch,
        tiles: &mut PortTiles,
        stats: Option<&ServerStats>,
        sorted: &mut Vec<Key>,
    ) -> Result<(), FrameError> {
        sorted.clear();
        if batch.is_empty() {
            return Ok(());
        }
        sorted.reserve(batch.iter().map(|l| l.keys().len()).sum());
        let done = sort_groups(
            self.engine.tape(),
            scratch,
            tiles,
            batch,
            self.cfg.channels,
            self.pad,
            stats,
            sorted,
        );
        if done.is_err() {
            sorted.clear();
        }
        done
    }
}

/// Sorts `batch` through `tape` one plane group (`64 · W` lanes) at a
/// time, appending each lane's first `keys().len()` output channels to
/// `sorted`, lane after lane. Per 64-lane word, [`pack_tiles`] crosses the
/// lanes' keys (and `pad` on free channels) into port words that go
/// straight into the tape's input registers; after the run, the output
/// registers' words are crossed back by [`decode_tiles`]. `tiles` is
/// resized to the tape and reused. The pack and eval time of the whole
/// batch is recorded into `stats` (when given).
#[allow(clippy::too_many_arguments)]
pub(super) fn sort_groups<L: Lane>(
    tape: &EvalTape,
    scratch: &mut TapeScratch,
    tiles: &mut PortTiles,
    batch: &[L],
    channels: usize,
    pad: Key,
    stats: Option<&ServerStats>,
    sorted: &mut Vec<Key>,
) -> Result<(), FrameError> {
    let width = pad.width();
    let internal = |detail: String| FrameError::Internal { detail };
    let mut planes = tape
        .try_planes(scratch)
        .map_err(|e| internal(format!("tape rejected the batch: {e}")))?;
    let ports = channels * width;
    if (planes.input_count(), planes.output_count()) != (ports, ports) {
        return Err(internal(format!(
            "tape has {} inputs and {} outputs, batch needs {ports}",
            planes.input_count(),
            planes.output_count()
        )));
    }
    // One tile set per plane word, so each register is read or written
    // once per group, all its words together.
    let words = planes.words();
    tiles.fit(ports, words);
    let (mut pack, mut eval) = (Duration::ZERO, Duration::ZERO);
    let mut decoded = Ok(());
    'groups: for group in batch.chunks(64 * words) {
        let pack_start = Instant::now();
        let mut lanes = group.chunks(64);
        let mut fits = true;
        for k in 0..words {
            fits &= pack_tiles(lanes.next().unwrap_or_default(), pad, channels, tiles, k);
        }
        if !fits {
            // The batch fails before this group is evaluated: name the
            // first lane at fault, by the same rule the pack applied.
            check_fit(batch, channels, width)?;
        }
        for p in 0..ports {
            let (zs, os) = planes.input_mut(p);
            for k in 0..words {
                // Lanes past the batch are stable 0.
                let unused = !TritWord::lane_mask(group.len().saturating_sub(64 * k).min(64));
                let (z, o) = tiles.port(k, p);
                (zs[k], os[k]) = (z | unused, o);
            }
        }
        let eval_start = Instant::now();
        planes.run();
        pack += eval_start - pack_start;
        eval += eval_start.elapsed();
        for p in 0..ports {
            let (zs, os) = planes.output(p);
            for k in 0..words {
                tiles.set_port(k, p, zs[k], os[k]);
            }
        }
        for (k, lanes) in group.chunks(64).enumerate() {
            decoded = decode_tiles(lanes, width, tiles, k, sorted);
            if decoded.is_err() {
                break 'groups;
            }
        }
    }
    if let Some(stats) = stats {
        stats.pack.record(nanos_u64(pack));
        stats.eval.record(nanos_u64(eval));
    }
    decoded
}

/// What the serving core reads of one lane of a batch: a parsed
/// [`Request`] or a queued [`Job`], so the worker never copies its jobs.
pub(super) trait Lane {
    /// The client id, for error detail.
    fn id(&self) -> &[u8];
    fn keys(&self) -> &[Key];
}

impl Lane for Request {
    fn id(&self) -> &[u8] {
        self.id.as_bytes()
    }

    fn keys(&self) -> &[Key] {
        &self.keys
    }
}

impl Lane for Job {
    fn id(&self) -> &[u8] {
        self.id.as_slice()
    }

    fn keys(&self) -> &[Key] {
        self.keys.as_slice()
    }
}

/// Refuses a batch that does not fit the circuit: more keys than
/// channels, or a key of another width. The cold path of [`pack_tiles`]'s
/// check, naming the first lane at fault.
fn check_fit<L: Lane>(batch: &[L], channels: usize, width: usize) -> Result<(), FrameError> {
    for l in batch {
        let keys = l.keys();
        if keys.len() > channels {
            return Err(FrameError::TooManyKeys {
                got: keys.len(),
                max: channels,
            });
        }
        if let Some((index, key)) = keys.iter().enumerate().find(|(_, k)| k.width() != width) {
            return Err(FrameError::BadKey {
                index,
                detail: format!(
                    "\"{key}\" has width {}, server sorts width {width}",
                    key.width()
                ),
            });
        }
    }
    Ok(())
}

/// The pack stage of word `k` of a plane group: spells each lane's keys, then `pad`
/// on its free channels, as the lane's bit string of both planes, and
/// transposes the tiles into port order. `lanes` number at most 64; ports
/// of absent lanes are 0. Returns whether every lane fits the circuit
/// ([`check_fit`]'s rule); the tiles of one that does not are garbage.
pub(super) fn pack_tiles<L: Lane>(
    lanes: &[L],
    pad: Key,
    channels: usize,
    tiles: &mut PortTiles,
    k: usize,
) -> bool {
    let width = pad.width();
    let (tz, to) = tiles.word(k);
    for tile in tz.iter_mut().chain(to.iter_mut()) {
        *tile = [0; 64];
    }
    if lanes.is_empty() {
        return true;
    }
    let mut misfit = false;
    for (j, l) in lanes.iter().enumerate() {
        // The lane's string so far, right-aligned: `fill` bits (< 64) not
        // yet stored in tile `t`.
        let (mut z, mut o, mut fill, mut t) = (0u64, 0u64, 0usize, 0usize);
        let mut push = |key: &Key| {
            misfit |= key.width != pad.width;
            let room = 64 - fill;
            if width < room {
                z = z << width | key.can_zero;
                o = o << width | key.can_one;
                fill += width;
            } else {
                // The key's top `room` bits complete tile `t`'s row.
                let rest = width - room;
                tz[t][j] = z << room | key.can_zero >> rest;
                to[t][j] = o << room | key.can_one >> rest;
                t += 1;
                let low = (1u64 << rest) - 1;
                (z, o, fill) = (key.can_zero & low, key.can_one & low, rest);
            }
        };
        // Two loops, not a per-channel choice of key or pad: the key count
        // varies from lane to lane and would mispredict.
        let keys = l.keys();
        keys.iter().take(channels).for_each(&mut push);
        (keys.len()..channels).for_each(|_| push(&pad));
        if fill > 0 {
            tz[t][j] = z << (64 - fill);
            to[t][j] = o << (64 - fill);
        }
        misfit |= keys.len() > channels;
    }
    tiles.transpose(k);
    !misfit
}

/// The decode stage of word `k` of a plane group: transposes the output ports'
/// tiles into lane order and reads each lane's first `keys().len()`
/// channels as keys, each checked by the valid-string rule. A lane that is
/// not a valid string fails the batch with [`FrameError::Internal`].
pub(super) fn decode_tiles<L: Lane>(
    lanes: &[L],
    width: usize,
    tiles: &mut PortTiles,
    k: usize,
    sorted: &mut Vec<Key>,
) -> Result<(), FrameError> {
    tiles.transpose(k);
    for (j, l) in lanes.iter().enumerate() {
        for (c, (kz, ko)) in tiles.lane(k, j, width, l.keys().len()).enumerate() {
            let key = Key::from_planes(kz, ko, width).map_err(|e| {
                let mut bits = Vec::with_capacity(width);
                push_spelled(&mut bits, kz, ko, width);
                FrameError::Internal {
                    detail: format!(
                        "output channel {c} of request {:?} is not a valid \
                         string ({}): {e}",
                        String::from_utf8_lossy(l.id()),
                        String::from_utf8_lossy(&bits)
                    ),
                }
            })?;
            sorted.push(key);
        }
    }
    Ok(())
}

/// The per-bit reference of the codec: the pack, decode and spelling loops
/// the word-level stages replaced, kept as their test oracles.
#[cfg(test)]
pub(super) mod oracle {
    use super::*;

    /// One 64-lane word of every port: `z[p]`, `o[p]` are the two planes of
    /// port `p`.
    #[derive(Debug)]
    pub(in crate::server) struct Column {
        pub(in crate::server) z: Vec<u64>,
        pub(in crate::server) o: Vec<u64>,
    }

    /// Writes each lane's keys, then `pad` on its free channels, into
    /// `col`, one bit at a time; ports of absent lanes stay 0.
    pub(in crate::server) fn pack_lanes<L: Lane>(lanes: &[L], pad: Key, col: &mut Column) {
        let width = pad.width();
        col.z.fill(0);
        col.o.fill(0);
        for (j, l) in lanes.iter().enumerate() {
            let keys = l.keys();
            let channels = col
                .z
                .chunks_exact_mut(width)
                .zip(col.o.chunks_exact_mut(width));
            for (c, (zc, oc)) in channels.enumerate() {
                let key = keys.get(c).copied().unwrap_or(pad);
                let (kz, ko) = (key.can_zero, key.can_one);
                // The last port of a channel carries its least significant bit.
                for (shift, (zp, op)) in zc.iter_mut().zip(oc.iter_mut()).rev().enumerate() {
                    *zp |= (kz >> shift & 1) << j;
                    *op |= (ko >> shift & 1) << j;
                }
            }
        }
    }

    /// Gathers each lane's first `keys().len()` channels from `col` into
    /// keys, one bit at a time, each checked by the valid-string rule.
    pub(in crate::server) fn decode_lanes<L: Lane>(
        lanes: &[L],
        width: usize,
        col: &Column,
        sorted: &mut Vec<Key>,
    ) -> Result<(), FrameError> {
        for (j, l) in lanes.iter().enumerate() {
            let channels = col.z.chunks_exact(width).zip(col.o.chunks_exact(width));
            for (c, (zc, oc)) in channels.take(l.keys().len()).enumerate() {
                let gather =
                    |plane: &[u64]| plane.iter().fold(0u64, |key, p| (key << 1) | (p >> j & 1));
                let (kz, ko) = (gather(zc), gather(oc));
                let key = Key::from_planes(kz, ko, width).map_err(|e| FrameError::Internal {
                    detail: format!(
                        "output channel {c} of request {:?} is not a valid \
                         string ({}): {e}",
                        String::from_utf8_lossy(l.id()),
                        spell_planes(kz, ko, width)
                    ),
                })?;
                sorted.push(key);
            }
        }
        Ok(())
    }

    /// The `width` characters spelled by two plane masks, MSB first, one
    /// character at a time.
    pub(in crate::server) fn spell_planes(can_zero: u64, can_one: u64, width: usize) -> String {
        (0..width)
            .rev()
            .map(
                |shift| match (can_zero >> shift & 1, can_one >> shift & 1) {
                    (1, 0) => '0',
                    (0, 1) => '1',
                    (1, 1) => 'M',
                    _ => '?',
                },
            )
            .collect()
    }

    /// Loads `col` into port tiles and decodes them: the production decode
    /// over an oracle column.
    pub(in crate::server) fn decode_column<L: Lane>(
        lanes: &[L],
        width: usize,
        col: &Column,
        sorted: &mut Vec<Key>,
    ) -> Result<(), FrameError> {
        let mut tiles = PortTiles::new(col.z.len(), 1);
        for (p, (&z, &o)) in col.z.iter().zip(&col.o).enumerate() {
            tiles.set_port(0, p, z, o);
        }
        decode_tiles(lanes, width, &mut tiles, 0, sorted)
    }
}
