module Telemetry = Harmony_telemetry.Telemetry

type log_action = Append | Restart | Prune

let default_compact_every = 64

module type MACHINE = sig
  type message
  type reply
  type key

  val message_to_string : message -> string
  val parse_message : string -> (message, string) result
  val reply_to_string : reply -> string
  val journaled : message -> bool
  val key : message -> key
  val equal_key : key -> key -> bool
  val log_action : message -> reply -> log_action
  val snapshot_magic : string
  val prefix : string
end

module Make (M : MACHINE) = struct
  module Event = struct
    type t = Recv of M.message | Reply of string | Shed of M.message

    let encode ~seq = function
      | Recv m -> Printf.sprintf "%d recv %s" seq (M.message_to_string m)
      | Reply text -> Printf.sprintf "%d reply %s" seq text
      | Shed m -> Printf.sprintf "%d shed %s" seq (M.message_to_string m)

    let decode record =
      let split s =
        match String.index_opt s ' ' with
        | None -> None
        | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      in
      let message seq make text =
        Option.map (fun m -> (seq, make m)) (Result.to_option (M.parse_message text))
      in
      match Option.map (fun (seq, rest) -> (int_of_string_opt seq, split rest)) (split record) with
      | Some (Some seq, Some (tag, payload)) when seq >= 1 -> (
          match tag with
          | "recv" -> message seq (fun m -> Recv m) payload
          | "reply" -> Some (seq, Reply payload)
          | "shed" -> message seq (fun m -> Shed m) payload
          | _ -> None)
      | Some ((Some _ | None), _) | None -> None
  end

  (* [seq] numbers the journaled messages; a message's reply record
     carries the same seq, so recovery pairs them back up, and a stale
     journal tail (a crash between snapshot rename and journal reset)
     is detected by seq alone.  [log] is the replayable essence a
     snapshot persists, newest first. *)
  type attachment = {
    journal : Journal.t;
    snapshot : string;
    compact_every : int;
    mutable seq : int;
    mutable log : (int * M.key * Event.t) list;
  }

  type t = { mutable attachment : attachment option }

  let create () = { attachment = None }
  let attached t = Option.is_some t.attachment
  let snapshot_path path = path ^ ".snapshot"
  let span_name = M.prefix ^ ".journal.append"
  let c_appends = M.prefix ^ ".journal.appends"
  let c_fsyncs = M.prefix ^ ".journal.fsyncs"
  let c_compactions = M.prefix ^ ".journal.compactions"

  let extend log ~seq message reply text =
    let key = M.key message in
    let prune log = List.filter (fun (_, k, _) -> not (M.equal_key k key)) log in
    let pair log = (seq, key, Event.Reply text) :: (seq, key, Event.Recv message) :: log in
    match M.log_action message reply with
    | Append -> pair log
    | Restart -> pair (prune log)
    | Prune -> prune log

  (* Snapshot = the log written atomically (original seqs preserved),
     after which the journal restarts empty.  Crash windows: before the
     rename there is the old snapshot + the full journal; between
     rename and reset, the new snapshot + a stale journal whose seqs
     are all <= the header seq (skipped on load); after the reset, a
     clean pair. *)
  let compact a =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Frame.encode (Printf.sprintf "%s 1 %d" M.snapshot_magic a.seq));
    List.iter
      (fun (seq, _, ev) -> Buffer.add_string buf (Frame.encode (Event.encode ~seq ev)))
      (List.rev a.log);
    Persist.write_atomic ~path:a.snapshot (Buffer.contents buf);
    Journal.reset a.journal

  let compact_if_due tel a =
    if Journal.records a.journal > a.compact_every then begin
      Telemetry.incr tel c_compactions;
      compact a
    end

  (* Every [Journal.append] frames, writes and fsyncs one record. *)
  let append tel a record =
    Journal.append a.journal record;
    Telemetry.incr tel c_appends;
    Telemetry.incr tel c_fsyncs

  (* Each WAL write is its own correlated span, so a trace attributes
     journal latency apart from the work the message triggers. *)
  let append_span tel ctx a record =
    let args =
      match ctx with
      | Some c -> Telemetry.Ctx.args (Telemetry.Ctx.child c span_name)
      | None -> []
    in
    Telemetry.span_begin tel ~args span_name;
    append tel a record;
    Telemetry.span_end tel span_name

  let handle t tel ?ctx message apply =
    match t.attachment with
    | Some a when M.journaled message ->
        a.seq <- a.seq + 1;
        append_span tel ctx a (Event.encode ~seq:a.seq (Recv message));
        let reply = apply () in
        let text = M.reply_to_string reply in
        append_span tel ctx a (Event.encode ~seq:a.seq (Reply text));
        a.log <- extend a.log ~seq:a.seq message reply text;
        compact_if_due tel a;
        reply
    | Some _ | None -> apply ()

  let shed t tel message ~reply =
    match t.attachment with
    | Some a when M.journaled message ->
        a.seq <- a.seq + 1;
        append tel a (Event.encode ~seq:a.seq (Shed message));
        append tel a (Event.encode ~seq:a.seq (Reply reply));
        let key = M.key message in
        a.log <- (a.seq, key, Reply reply) :: (a.seq, key, Shed message) :: a.log;
        compact_if_due tel a
    | Some _ | None -> ()

  let check_compact_every n =
    if n < 1 then invalid_arg (M.prefix ^ " journal: compact_every < 1")

  let set t attachment =
    Option.iter (fun a -> Journal.close a.journal) t.attachment;
    t.attachment <- attachment

  let detach t = set t None

  let attach ?(compact_every = default_compact_every) slots =
    check_compact_every compact_every;
    let opened = ref [] in
    (try
       List.iter
         (fun (_, path, wrap) -> opened := snd (Journal.open_file ?wrap path) :: !opened)
         slots
     with e ->
       List.iter Journal.close !opened;
       raise e);
    List.iter2
      (fun (t, path, _) journal ->
        Journal.reset journal;
        Persist.remove_if_exists (snapshot_path path);
        Persist.remove_if_exists (snapshot_path path ^ ".tmp");
        set t (Some { journal; snapshot = snapshot_path path; compact_every; seq = 0; log = [] }))
      slots (List.rev !opened)

  let parse_snapshot_header record =
    match String.split_on_char ' ' record with
    | [ magic; "1"; seq ] when String.equal magic M.snapshot_magic ->
        int_of_string_opt seq
    | _ -> None

  let load_events path =
    let dropped = ref 0 in
    let decode ~after record =
      match Event.decode record with
      | Some ((seq, _) as ev) when seq > after -> Some ev
      | Some _ | None ->
          incr dropped;
          None
    in
    let snap_events, snap_seq =
      match (Journal.read (snapshot_path path)).Frame.records with
      | [] -> ([], 0)
      | header :: rest -> (
          match parse_snapshot_header header with
          | Some seq -> (List.filter_map (decode ~after:0) rest, seq)
          | None ->
              (* Unusable snapshot: fall back to the journal alone. *)
              dropped := !dropped + 1 + List.length rest;
              ([], 0))
    in
    let journal_events =
      List.filter_map (decode ~after:snap_seq) (Journal.read path).Frame.records
    in
    (snap_events @ journal_events, !dropped)

  (* Re-apply recorded messages in order.  A [Recv]'s reply record must
     match the regenerated reply; a [Shed] message is not re-applied
     and its reply is kept literally ([shed] holds the pending shed's
     key).  The first divergence or non-monotone seq drops the rest. *)
  let replay ~apply events =
    let rec go events last shed applied log seq =
      match events with
      | [] -> (last, applied, 0, log, seq)
      | (s, Event.Recv m) :: rest when s > seq ->
          let reply = apply m in
          let text = M.reply_to_string reply in
          go rest (Some (reply, text)) None (applied + 1)
            (extend log ~seq:s m reply text) s
      | (s, (Event.Shed m as ev)) :: rest when s > seq ->
          let key = M.key m in
          go rest last (Some key) (applied + 1) ((s, key, ev) :: log) s
      | (s, (Event.Reply text as ev)) :: rest
        when s = seq
             && (Option.is_some shed
                || match last with Some (_, r) -> String.equal r text | None -> false) ->
          let log = match shed with Some key -> (s, key, ev) :: log | None -> log in
          go rest last None applied log seq
      | (_, (Event.Recv _ | Event.Shed _ | Event.Reply _)) :: rest ->
          (last, applied, 1 + List.length rest, log, seq)
    in
    go events None None 0 [] 0

  type recovery = { last_reply : M.reply option; replayed : int; dropped : int }

  let recover ?wrap ?(compact_every = default_compact_every) t ~journal:path ~apply =
    check_compact_every compact_every;
    let events, dropped_load = load_events path in
    let last, replayed, dropped_replay, log, seq = replay ~apply events in
    let _scan, journal = Journal.open_file ?wrap path in
    let a = { journal; snapshot = snapshot_path path; compact_every; seq; log } in
    set t (Some a);
    (* Checkpoint on the way up: torn tails, stale records and diverged
       suffixes are durably gone, so a crash loop cannot re-accumulate
       damage. *)
    compact a;
    { last_reply = Option.map fst last; replayed; dropped = dropped_load + dropped_replay }
end
