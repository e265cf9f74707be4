(** The write-ahead state machine shared by every journaled handler.

    A {e machine} turns messages into replies deterministically; the
    tuning server and each service shard are its two instances.
    {!Make} owns the journal record codec, the WAL bracket (fsync a
    message before applying it, its reply right after), journaled
    admission rejections, snapshot compaction, and recovery by replay
    with byte-for-byte reply cross-checks.  A snapshot persists the
    {e log}: the replayable records, kept per message key. *)

module Telemetry := Harmony_telemetry.Telemetry

type log_action =
  | Append
  | Restart  (** drop the key's entries, then keep this message's *)
  | Prune  (** drop the key's entries, this message's included *)

module type MACHINE = sig
  type message
  type reply
  type key

  val message_to_string : message -> string
  val parse_message : string -> (message, string) result
  val reply_to_string : reply -> string

  val journaled : message -> bool
  (** Read-only messages are not journaled: replay regenerates their
      replies for free. *)

  val key : message -> key
  val equal_key : key -> key -> bool
  val log_action : message -> reply -> log_action

  val snapshot_magic : string
  (** First word of the snapshot header record ["<magic> 1 <seq>"]. *)

  val prefix : string
  (** Telemetry namespace of the [<prefix>.journal.append] span and the
      [<prefix>.journal.appends] / [fsyncs] / [compactions] counters. *)
end

module Make (M : MACHINE) : sig
  module Event : sig
    type t = Recv of M.message | Reply of string | Shed of M.message

    val encode : seq:int -> t -> string
    (** ["<seq> recv <message>"], ["<seq> reply <text>"] or
        ["<seq> shed <message>"]. *)

    val decode : string -> (int * t) option
    (** Total inverse of {!encode}; [None] on anything malformed. *)
  end

  type t
  (** A journal slot: detached, or attached to a journal file and its
      [<journal>.snapshot]. *)

  val create : unit -> t
  val attached : t -> bool

  val attach :
    ?compact_every:int ->
    (t * string * (Persist.sink -> Persist.sink) option) list ->
    unit
  (** Start a fresh log for every [(slot, journal, wrap)], emptying the
      journal and removing its snapshot; past [compact_every] records
      (default 64) the log is snapshotted and the journal emptied.
      Every new journal is opened before any old one is closed, so a
      failed open leaves every slot as it was.
      @raise Invalid_argument when [compact_every < 1]. *)

  val detach : t -> unit
  (** Close the journal, leaving its files recoverable. *)

  val handle :
    t -> Telemetry.t -> ?ctx:Telemetry.Ctx.t -> M.message -> (unit -> M.reply) -> M.reply
  (** [handle slot tel ?ctx message apply] is [apply ()], bracketed when
      the slot is attached and the message journaled: [Recv] is durable
      before [apply] runs, [Reply] right after, each append a
      [<prefix>.journal.append] span (a child of [ctx]).  The sink's
      I/O exceptions propagate. *)

  val shed : t -> Telemetry.t -> M.message -> reply:string -> unit
  (** Journal an admission rejection ([Shed] plus its literal [reply])
      without applying it; no-op when detached or not journaled. *)

  val load_events : string -> (int * Event.t) list * int
  (** Snapshot records, then the journal's newer ones, and the count of
      records dropped as undecodable or stale.  Never raises. *)

  type recovery = { last_reply : M.reply option; replayed : int; dropped : int }

  val recover :
    ?wrap:(Persist.sink -> Persist.sink) ->
    ?compact_every:int ->
    t ->
    journal:string ->
    apply:(M.message -> M.reply) ->
    recovery
  (** Replay the recorded messages through [apply] (a fresh machine),
      keeping shed replies literally and dropping everything from the
      first reply mismatch or non-monotone seq on; then attach the slot
      to [journal] (through [wrap]) and checkpoint the recovered log.
      @raise Invalid_argument when [compact_every < 1]. *)
end
