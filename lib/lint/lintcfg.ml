(* Lint configuration: the invariants the rules enforce, expressed as
   data so tests can aim the rules at fixture modules.  [default] encodes
   this repository's ground truth.

   Names are "normalized": compilation-unit separators ("__") are
   rewritten to ".", so [Rae_block__Device.write] and
   [Rae_block.Device.write] are the same name.  Entries with a trailing
   '.' are prefixes covering a whole module; cell names are either
   global value paths ("Rae_vfs.Intern.ids") or field paths on a record
   type ("Rae_obs.Events.t.total"). *)

type t = {
  libraries : (string * string list) list;
      (* library -> allowed dependency libraries (self always allowed).
         Libraries absent from this table are not layer-checked, and
         imports of unknown libraries (stdlib, fmt, ...) are ignored. *)
  purity_roots : string list;
      (* normalized unit-name prefixes whose every definition must not
         reach a write-path sink (rule shadow-purity). *)
  purity_sinks : string list;
      (* normalized value names; a trailing '.' makes the entry a prefix
         covering a whole module. *)
  signal_exceptions : string list;
      (* normalized extension-constructor names that carry runtime-error
         signals; catch-all handlers that can absorb one are flagged. *)
  ondisk_types : string list;
      (* normalized type-constructor paths of on-disk structures for
         which polymorphic compare/equality is forbidden. *)
  partial_fns : (string * string) list;
      (* normalized stdlib value -> suggested replacement. *)
  exempt_units : string list;
      (* normalized unit-name prefixes exempt from the partial-call and
         swallow rules (test executables and the like). *)
  poly_hash_units : string list;
      (* normalized unit-name prefixes on the serving path, where the
         polymorphic [Stdlib.Hashtbl] functions and [Hashtbl.hash] are
         findings (rule poly-hash): their tables use [Rae_util.Tbl]. *)
  (* ---- persistence-ordering typestate (rule persist-order) ---- *)
  persist_raw_sinks : string list;
      (* raw (journal-bypassing) block-write value paths *)
  persist_flush_sinks : string list;  (* raw barrier/flush value paths *)
  persist_sink_fields : string list;
      (* record fields that ARE the raw write path when read (function
         fields of the device record), as "Type.field" *)
  persist_flush_fields : string list;
  journal_append_fns : string list;
      (* opening / appending to a journal transaction *)
  journal_commit_fns : string list;  (* making a transaction durable *)
  persist_writers : string list;
      (* def-name prefixes allowed to touch the raw sinks: the journal
         itself, the block layer the sinks live in, mkfs (which writes
         outside the journal protocol by design), and the ordered-mode
         data destage. *)
  (* ---- domain-safety pre-pass (rule domain-safety) ---- *)
  domain_regions : (string * string list) list;
      (* region name -> def-name prefixes of code that runs on a worker
         domain (the pool and the crash sweep) or that a worker could
         be handed (the checkpoint fold and constrained replay, on the
         controller's domain today).  Every global mutable cell (or
         mutable record field) written by code reachable from a region
         root must be guarded, declared domain-local, or it is a
         finding. *)
  guarded_cells : (string * string) list;
      (* cell prefix -> justification.  For cells whose guard the
         analysis cannot see (e.g. ring slots made exclusive by an
         Atomic fetch-and-add): the declaration is recorded verbatim in
         domain_escape.json so it stays reviewable. *)
  domain_local_cells : (string * string) list;
      (* cell prefix -> ownership justification (state owned by the
         instance a single domain holds, e.g. a shadow being folded). *)
  shadow_state_types : string list;
      (* type prefixes whose field mutation counts as the shadow-mutate
         effect *)
  (* ---- recovery-phase ordering (rule phase-order) ---- *)
  phase_protocols : (string * string list) list;
      (* phase-marker function -> declared phase order.  Every call of
         the marker with a literal phase name, on every path through the
         marker's unit, must respect this order; the first phase resets
         the automaton (a new recovery attempt). *)
}

(* Layering ground truth.  This intentionally duplicates the dune
   stanzas: the rule checks the compiled import tables, so a dependency
   smuggled in through a loosened stanza still fails the gate. *)
let default_libraries =
  [
    ("util", []);
    ("obs", [ "util" ]);
    ("vfs", [ "util" ]);
    (* the per-call fan-out sits at the bottom of the cone beside util:
       pure stdlib (Domain/Atomic).  Only the crash sweep links it; the
       recovery stack below stays single-domain. *)
    ("par", []);
    ("block", [ "util"; "obs" ]);
    ("format", [ "util"; "vfs"; "block" ]);
    ("journal", [ "util"; "obs"; "block"; "format" ]);
    ("cache", [ "util"; "obs"; "vfs" ]);
    ("fsck", [ "util"; "vfs"; "block"; "format" ]);
    (* the shadow stays small: no recorder, no fsck (the controller runs
       the cold path's fsck before it attaches) *)
    ("shadowfs", [ "util"; "vfs"; "block"; "format" ]);
    ("specfs", [ "util"; "vfs"; "format" ]);
    ("basefs", [ "util"; "obs"; "vfs"; "block"; "format"; "journal"; "cache" ]);
    ("workload", [ "util"; "vfs" ]);
    ("bugstudy", [ "util" ]);
    ( "core",
      [
        "util"; "obs"; "vfs"; "block"; "format"; "journal"; "cache"; "fsck"; "basefs"; "shadowfs";
        "specfs"; "workload";
      ] );
    (* the crash engine sits beside srv at the top of the cone: it drives
       the whole stack (base mounts, controller recoveries, the shadow
       oracle) but nothing depends on it *)
    ( "crash",
      [
        "util"; "obs"; "vfs"; "block"; "format"; "journal"; "cache"; "fsck"; "basefs"; "shadowfs";
        "specfs"; "workload"; "core"; "par";
      ] );
    ("lint", [ "util"; "obs" ]);
    (* srv's direct deps are util/obs/vfs/core; the rest of core's allowed
       set rides along because the controller's interface pulls those cmis
       into srv's import tables. *)
    ( "srv",
      [
        "util"; "obs"; "vfs"; "block"; "format"; "journal"; "cache"; "fsck"; "basefs"; "shadowfs";
        "workload"; "core";
      ] );
  ]

(* Must match Rae_core.Controller.phase_names; test_lint pins the two
   lists together.  Declared here (not read from the controller) so the
   lint library keeps its shallow dependency cone — and so a drive-by
   edit to phase_names that forgets the declared protocol fails a test
   rather than silently re-teaching the rule. *)
let default_phase_order =
  [
    "contained-reboot";
    "shadow-attach";
    "fd-reinstate";
    "seed";
    "constrained-replay";
    "inflight-autonomous";
    "metadata-download";
    "resume";
    "delegated-sync";
  ]

let default =
  {
    libraries = default_libraries;
    (* Rae_core.Checkpoint holds a live warm shadow: it inherits the
       shadow's never-writes-to-disk obligation even though it lives in
       the core library. *)
    purity_roots = [ "Rae_shadowfs."; "Rae_fsck.Fsck"; "Rae_core.Checkpoint" ];
    purity_sinks =
      [
        "Rae_block.Device.write";
        "Rae_block.Device.flush";
        "Rae_block.Disk.write";
        "Rae_block.Disk.restore";
        "Rae_block.Disk.save";
        "Rae_block.Disk.corrupt_byte";
        "Rae_block.Blkmq.enqueue";
        "Rae_block.Blkmq.submit_write";
        "Rae_block.Blkmq.dispatch_one";
        "Rae_block.Blkmq.kick";
        "Rae_journal.Journal.";
        "Rae_basefs.Base.";
      ];
    signal_exceptions =
      [
        "Rae_shadowfs.Shadow.Violation";
        "Rae_basefs.Detector.Base_bug";
        "Rae_basefs.Detector.Hang";
        "Rae_basefs.Detector.Validation_failed";
      ];
    ondisk_types =
      [
        "Rae_format.Superblock.t";
        "Rae_format.Inode.t";
        "Rae_format.Dirent.entry";
        "Rae_format.Bitmap.t";
      ];
    partial_fns =
      [
        ("Stdlib.List.hd", "match on the list");
        ("Stdlib.List.tl", "match on the list");
        ("Stdlib.List.nth", "List.nth_opt");
        ("Stdlib.Option.get", "match on the option");
        ("Stdlib.Hashtbl.find", "Hashtbl.find_opt, or handle Not_found at the call site");
      ];
    exempt_units = [ "Dune.exe" ];
    (* Fsck, the spec, the crash engine and the lint keep the generic
       tables: they are off the serving path, and fsck's finding order is
       part of its messages. *)
    poly_hash_units =
      [ "Rae_basefs."; "Rae_shadowfs."; "Rae_journal."; "Rae_cache."; "Rae_srv."; "Rae_core." ];
    (* Raw block writes: everything that reaches the medium without going
       through the journal's transaction protocol. *)
    persist_raw_sinks =
      [
        "Rae_block.Device.write";
        "Rae_block.Disk.write";
        "Rae_block.Disk.restore";
        "Rae_block.Disk.corrupt_byte";
        "Rae_block.Blkmq.submit_write";
        "Rae_block.Blkmq.enqueue";
      ];
    persist_flush_sinks = [ "Rae_block.Device.flush"; "Rae_block.Blkmq.kick" ];
    persist_sink_fields = [ "Rae_block.Device.t.dev_write" ];
    persist_flush_fields = [ "Rae_block.Device.t.dev_flush" ];
    journal_append_fns = [ "Rae_journal.Journal.begin_txn"; "Rae_journal.Journal.txn_write" ];
    journal_commit_fns = [ "Rae_journal.Journal.commit" ];
    persist_writers =
      [
        (* the sinks' own home *)
        "Rae_block.Device.";
        "Rae_block.Disk.";
        "Rae_block.Blkmq.";
        (* the one sanctioned writer of durable metadata *)
        "Rae_journal.Journal.";
        (* writes outside the journal protocol by design: formatting a
           fresh image *)
        "Rae_format.Mkfs.";
        (* ordered-mode data destage: data blocks reach the medium
           before the metadata commit that references them (base.ml
           commit_work), exactly like ext4 data=ordered *)
        "Rae_basefs.Base.commit_work";
        (* the crash enumerator materializes crash images by raw disk
           writes onto scratch disks — it *models* torn persistence, so
           it is outside the journal protocol by definition *)
        "Rae_crash.";
      ];
    domain_regions =
      [
        ("ckpt-fold", [ "Rae_core.Checkpoint.fold" ]);
        ("constrained-replay", [ "Rae_shadowfs.Shadow.exec_constrained_window" ]);
        (* Code that actually runs on spawned domains.  The fan-out is
           the generic root (every map_array item runs under it, on the
           caller or on a domain spawned for the call); the other is the
           crash sweep's per-workload body, which also reaches the fsck
           and journal-replay code each sweep point runs. *)
        ("par-pool", [ "Rae_par.Pool." ]);
        ("par-crash-sweep", [ "Rae_crash.Engine.sweep_workloads" ]);
      ];
    guarded_cells =
      [
        (* Flight-recorder ring slots: the slot index comes from an
           Atomic.fetch_and_add on Events.t.total, so concurrent writers
           touch disjoint slots; the per-slot arrays carry no ordering of
           their own.  (The analysis sees the Atomic on [total] but
           cannot prove slot disjointness.) *)
        ("Rae_obs.Events.t.e_", "slot exclusivity via Atomic fetch-and-add on Events.t.total");
      ]
      [@ocamlformat "disable"];
    domain_local_cells =
      [
        (* A shadow (and its overlay/chunk/cache state) is owned by the
           domain replaying into it: every controller and every
           crash-sweep oracle builds its own shadows, and the warm one
           passes to recovery whole at a seed, never shared, so
           intra-shadow state never crosses domains. *)
        ("Rae_shadowfs.", "shadow instance owned by the replaying domain");
        ("Rae_specfs.", "spec state embedded in a domain-owned shadow");
        (* fsck and journal replay run on a sweep worker only against
           that workload's own scratch image; their state is rebuilt per
           call. *)
        ("Rae_fsck.", "per-call scan state over a sweep point's own image");
        ("Rae_journal.", "per-mount journal and replay scan state over a sweep point's own image");
        (* Checkpoint bookkeeping (fold cursor, stats, the warm shadow
           handle): the controller's domain owns the checkpoint and runs
           every cut, fold and seed itself; no other domain touches it. *)
        ("Rae_core.Checkpoint.t.", "owned by the controller's domain; no worker hand-off");
        (* The medium: every crash-sweep point gets its own scratch disk
           and its own mount, hence its own queue. *)
        ("Rae_block.Disk.t.", "scratch disk owned by one sweep point");
        ("Rae_block.Blkmq.t.", "one queue per mount, owned by its sweep point");
        (* Each crash sweep owns its recording, scratch disks and stats;
           the one cross-sweep cell (the bundle sequence) is an Atomic. *)
        ("Rae_crash.", "sweep state owned by the driving domain; scratch disks per point");
        (* The parallel crash sweep gives every workload a fresh image,
           fresh recording and fresh mounts, so the whole base-fs cone it
           reaches — mount state, detector, bug registry — is owned by
           the sweeping domain for that workload's lifetime. *)
        ("Rae_basefs.", "per-workload mount/detector/registry instances owned by the sweeping domain");
        ("Rae_block.Crashsim.t.", "crash-sim device created and consumed by one recording sweep");
        ("Rae_block.Blkmq.req.", "request owned by its submitting queue's domain until completion");
        ("Rae_format.Bitmap.t.", "bitmap embedded in a domain-owned image or scan ctx");
        ("Rae_util.Rng.t.", "rng instance owned by its creating domain");
      ];
    shadow_state_types = [ "Rae_shadowfs."; "Rae_specfs." ];
    phase_protocols = [ ("Rae_core.Controller.phase", default_phase_order) ];
  }

let unit_matches prefix unit =
  String.equal unit prefix
  || String.starts_with ~prefix unit
  || String.equal prefix (unit ^ ".")

let is_exempt t unit = List.exists (fun p -> unit_matches p unit) t.exempt_units

(* Value-name matcher shared by the sink/writer lists: a trailing '.'
   makes the entry a prefix covering a whole module. *)
let name_matches entry name =
  if String.length entry > 0 && entry.[String.length entry - 1] = '.' then
    String.starts_with ~prefix:entry name
  else String.equal entry name

let name_in_list l name = List.exists (fun e -> name_matches e name) l

let assoc_prefix l name =
  List.find_map
    (fun (prefix, v) -> if String.starts_with ~prefix name then Some v else None)
    l
