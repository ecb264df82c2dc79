(** CRC32C (Castagnoli) checksums over byte buffers.

    Every on-disk structure in the filesystem format carries a CRC32C
    checksum, mirroring ext4's metadata_csum feature.  The shadow filesystem
    verifies these checksums on every structural read; the base verifies them
    only at mount time (a deliberate contrast the paper draws between the two
    implementations). *)

val crc32c : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [crc32c ?init b ~pos ~len] computes the CRC32C of [len] bytes of [b]
    starting at [pos].  [init] seeds the accumulator for incremental use
    (default [0l], meaning a fresh checksum).
    @raise Invalid_argument if [pos]/[len] fall outside [b]. *)

val hardware : bool
(** Whether {!crc32c} runs the SSE4.2 [crc32] instruction (x86-64 with
    SSE4.2, detected once at startup) rather than the portable
    slicing-by-8 loop.  Both compute the same function. *)

val kernel : string
(** The kernel {!crc32c} runs, by name: ["sse4.2-3stream"] (three
    interleaved [crc32] chains, combined by table lookups) or
    ["portable"]. *)

val crc32c_portable : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** The portable slicing-by-8 kernel, whatever the CPU: the reference
    {!crc32c} is tested against.  Same contract as {!crc32c}. *)

val crc32c_int : init:int -> bytes -> pos:int -> len:int -> int
(** {!crc32c} on native ints, so neither the seed nor the result is
    boxed: [crc32c_int ~init b ~pos ~len] is
    [Int32.to_int (crc32c ~init:(Int32.of_int init) b ~pos ~len) land 0xFFFF_FFFF],
    in the range 0 to 2^32 - 1.  Only [init]'s low 32 bits are read.
    @raise Invalid_argument if [pos]/[len] fall outside [b]. *)

val crc32c_string : string -> int32
(** [crc32c_string s] is the CRC32C of the whole string [s]. *)

val crc32c_decimal : int -> int
(** [crc32c_decimal n] is [crc32c_string (string_of_int n)] as an int in
    the range 0 to 2^32 - 1, computed digit by digit without building
    the string: the inode checksum's seed. *)

val verify : bytes -> pos:int -> len:int -> expect:int32 -> bool
(** [verify b ~pos ~len ~expect] recomputes the checksum and compares it
    against [expect]. *)
