(* The write-ahead state machine ({!Harmony_persist.Durable}) through
   its two instances, [Server] and the service shards.

   The goldens pin the on-disk format: a journaled run exercising every
   record kind and log rule (register, reports, a journaled shed, a
   rejected and an accepted re-register, deregisters, several
   compactions, then recovery) must reproduce the recorded digest of
   every journal and snapshot file, the recovery totals, and the
   digest of the run's logical-clock telemetry export.  A changed
   magic, reordered counter or re-framed record fails here even though
   it would still recover its own output.

   The re-attach tests pin the attach order: every new journal is
   opened before any old one is closed, so a re-attach that fails
   leaves the previous journal attached and journaling. *)

open Harmony
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Persist = Harmony_persist.Persist
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export

let paper_spec =
  "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}"

let respond assignment =
  let v name = float_of_int (List.assoc name assignment) in
  let db = v "B" -. 3.0 and dc = v "C" -. 4.0 in
  100.0 -. (db *. db) -. (dc *. dc)

let options = { Simplex.default_options with Simplex.max_evaluations = 12 }
let compact_every = 8
let shed_text = "error overloaded: retry-after=2 degraded"

let register =
  Server.Register { spec = paper_spec; direction = Server.Maximize }

(* A scratch directory removed afterwards, whatever the test leaves in
   it (journals, snapshots, their .tmp siblings). *)
let with_dir f =
  let dir = Filename.temp_file "harmony_durable" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

let digest_file path =
  match Persist.read_file path with
  | None -> "missing"
  | Some bytes -> Digest.to_hex (Digest.string bytes)

let digests ~stage paths =
  List.map
    (fun p -> Printf.sprintf "%s %s %s" stage (Filename.basename p) (digest_file p))
    paths

let check_golden name expected actual =
  Alcotest.(check (list string)) (name ^ " golden") expected actual

(* ------------------------------------------------------------------ *)
(* Server golden                                                       *)

let server_step server = function
  | Server.Assign a -> Server.handle server (Server.Report (respond a))
  | r -> Alcotest.fail ("expected an assignment, got " ^ Server.reply_to_string r)

let server_to_done server first =
  let rec go reply steps =
    if steps > 200 then Alcotest.fail "run did not reach done";
    match reply with
    | Server.Assign _ -> go (server_step server reply) (steps + 1)
    | Server.Done _ -> ()
    | r -> Alcotest.fail ("unexpected " ^ Server.reply_to_string r)
  in
  go first 0

let server_run dir =
  let tel = Telemetry.create () in
  let path = Filename.concat dir "server.journal" in
  let files () = [ path; path ^ ".snapshot" ] in
  let server =
    Server.create ~options ~reject_reregister:true ~telemetry:tel ()
  in
  Server.attach_journal ~compact_every server ~journal:path ();
  let reply = Server.handle server register in
  let reply = server_step server reply in
  let reply = server_step server reply in
  Server.journal_shed server (Server.Report 999.0) ~reply:shed_text;
  ignore (Server.handle server Server.Query);
  (match Server.handle server register with
  | Server.Rejected _ -> ()
  | r -> Alcotest.fail ("mid-tuning re-register: " ^ Server.reply_to_string r));
  server_to_done server reply;
  let reply = Server.handle server register in
  (match reply with
  | Server.Assign _ -> ()
  | r -> Alcotest.fail ("re-register after done: " ^ Server.reply_to_string r));
  let reply = server_step server reply in
  ignore (server_step server reply);
  Server.detach_journal server;
  let crashed = digests ~stage:"crashed" (files ()) in
  let r =
    Server.recover ~options ~reject_reregister:true ~telemetry:tel
      ~compact_every ~journal:path ()
  in
  let totals =
    Printf.sprintf "recovered replayed=%d dropped=%d last=%s" r.Server.replayed
      r.Server.dropped
      (match r.Server.last_reply with
      | Some reply -> Server.reply_to_string reply
      | None -> "none")
  in
  let reply = Server.handle r.Server.server Server.Query in
  ignore (server_step r.Server.server reply);
  Server.detach_journal r.Server.server;
  crashed @ [ totals ]
  @ digests ~stage:"resumed" (files ())
  @ [ "telemetry " ^ Digest.to_hex (Digest.string (Export.jsonl tel)) ]

let server_golden =
  [
    "crashed server.journal faadade58a7d74e0342e94f5e26e54ce";
    "crashed server.journal.snapshot 464b288d0ed201a5774d40c5b2e24343";
    "recovered replayed=18 dropped=0 last=assign B=7 C=2";
    "resumed server.journal 68ab728f0aa3894309e4f28e467cc6be";
    "resumed server.journal.snapshot 575e5e663d270b3011769322ce66b02a";
    "telemetry a8acf7b7a22c7f7e82f54fb89236d927";
  ]

let test_server_golden () =
  with_dir (fun dir -> check_golden "server" server_golden (server_run dir))

(* ------------------------------------------------------------------ *)
(* Service golden                                                      *)

let client_msg client payload = Service.Client { client; payload }

let service_step service client = function
  | Service.Client_reply { reply = Server.Assign a; _ } ->
      Service.handle service (client_msg client (Server.Report (respond a)))
  | r -> Alcotest.fail ("expected an assignment, got " ^ Service.reply_to_string r)

let service_to_done service client first =
  let rec go reply steps =
    if steps > 200 then Alcotest.fail "run did not reach done";
    match reply with
    | Service.Client_reply { reply = Server.Assign _; _ } ->
        go (service_step service client reply) (steps + 1)
    | Service.Client_reply { reply = Server.Done _; _ } -> ()
    | r -> Alcotest.fail ("unexpected " ^ Service.reply_to_string r)
  in
  go first 0

(* Two ids per shard at [shards = 2], so each shard journal interleaves
   two sessions and a deregister prunes only its own client. *)
let fleet = [ "alpha"; "bravo"; "echo"; "india" ]

let service_run dir =
  let shards = 2 in
  let tels = Array.init shards (fun _ -> Telemetry.create ()) in
  let journal = Filename.concat dir "service.journal" in
  let files () =
    List.concat_map
      (fun s ->
        let p = Service.shard_journal ~journal ~shard:s in
        [ p; p ^ ".snapshot" ])
      (List.init shards Fun.id)
  in
  let service =
    Service.create ~options ~telemetry:(fun i -> tels.(i))
      ~admission:Admission.unlimited ~shards ()
  in
  Service.attach_journals ~compact_every service ~journal ();
  let replies =
    List.map (fun c -> (c, Service.handle service (client_msg c register))) fleet
  in
  let replies =
    List.map (fun (c, r) -> (c, service_step service c r)) replies
  in
  (* One round through the batch path. *)
  let replies =
    List.combine fleet
      (Service.handle_batch service
         (List.map
            (fun (c, r) ->
              match r with
              | Service.Client_reply { reply = Server.Assign a; _ } ->
                  client_msg c (Server.Report (respond a))
              | r -> Alcotest.fail ("batch: " ^ Service.reply_to_string r))
            replies))
  in
  (* A past deadline sheds alpha's report: journaled, never applied. *)
  (match
     Service.handle_env service
       (Service.envelope ~deadline:(-1)
          (client_msg "alpha" (Server.Report 999.0)))
   with
  | Service.Client_reply { reply = Server.Rejected _; _ } -> ()
  | r -> Alcotest.fail ("shed: " ^ Service.reply_to_string r));
  ignore (Service.handle service (client_msg "bravo" Server.Query));
  (match Service.handle service (client_msg "bravo" register) with
  | Service.Client_reply { reply = Server.Rejected _; _ } -> ()
  | r -> Alcotest.fail ("mid-tuning re-register: " ^ Service.reply_to_string r));
  List.iter (fun (c, r) -> service_to_done service c r) replies;
  (match Service.handle service (Service.Deregister { client = "alpha" }) with
  | Service.Deregistered _ -> ()
  | r -> Alcotest.fail ("deregister: " ^ Service.reply_to_string r));
  ignore (Service.handle service (Service.Deregister { client = "zulu" }));
  let bravo = Service.handle service (client_msg "bravo" register) in
  let alpha = Service.handle service (client_msg "alpha" register) in
  ignore (service_step service "bravo" bravo);
  ignore (service_step service "alpha" alpha);
  Service.detach_journals service;
  let crashed = digests ~stage:"crashed" (files ()) in
  let r =
    Service.recover ~options ~telemetry:(fun i -> tels.(i))
      ~admission:Admission.unlimited ~compact_every ~shards ~journal ()
  in
  let totals =
    List.map
      (fun (pr : Service.shard_recovery) ->
        Printf.sprintf "recovered shard=%d replayed=%d dropped=%d" pr.shard
          pr.replayed pr.dropped)
      r.Service.per_shard
  in
  let service = r.Service.service in
  ignore
    (service_step service "bravo"
       (Service.handle service (client_msg "bravo" Server.Query)));
  ignore
    (service_step service "alpha"
       (Service.handle service (client_msg "alpha" Server.Query)));
  ignore (Service.handle service (Service.Deregister { client = "echo" }));
  Service.detach_journals service;
  crashed @ totals
  @ digests ~stage:"resumed" (files ())
  @ List.mapi
      (fun i tel ->
        Printf.sprintf "telemetry shard=%d %s" i
          (Digest.to_hex (Digest.string (Export.jsonl tel))))
      (Array.to_list tels)

let service_golden =
  [
    "crashed service.journal.shard0 6d0bf00b10a0639cbbc88e466059e207";
    "crashed service.journal.shard0.snapshot 174f9f68e07ef08925b1d830655cecec";
    "crashed service.journal.shard1 c6ddc4246adc6d19917d74f0b06d8ab6";
    "crashed service.journal.shard1.snapshot 7275fe74814a6e8f42f6ed71c3bfe072";
    "recovered shard=0 replayed=26 dropped=0";
    "recovered shard=1 replayed=19 dropped=0";
    "resumed service.journal.shard0 2ffcfafa167f61973aa1e6d88e31c883";
    "resumed service.journal.shard0.snapshot f5be85a2735c1311cfae4288799ff0d6";
    "resumed service.journal.shard1 87f933033508a86c5c5daf0566cea11c";
    "resumed service.journal.shard1.snapshot 2776d326f1634aa816ac68fa6b3b65ab";
    "telemetry shard=0 f65a1efc83a15b2ee3995be3d8c357ee";
    "telemetry shard=1 53007af37f0d9b7dfd53432e35e85451";
  ]

let test_service_golden () =
  with_dir (fun dir -> check_golden "service" service_golden (service_run dir))

(* ------------------------------------------------------------------ *)
(* A failed re-attach keeps the previous journal attached              *)

(* Run [f] with an unrelated file held open, then check nothing was
   written to it.  A journal closed but still referenced would write
   its WAL frames through the reused file descriptor. *)
let with_unrelated_file dir f =
  let path = Filename.concat dir "unrelated" in
  let oc = open_out_bin path in
  let result = f () in
  close_out oc;
  Alcotest.(check (option string)) "unrelated file stays empty" (Some "")
    (Persist.read_file path);
  result

let expect_attach_failure what attach =
  match attach () with
  | exception (Sys_error _ | Unix.Unix_error _) -> ()
  | () -> Alcotest.fail (what ^ ": re-attach to an unopenable path succeeded")

let test_server_failed_reattach () =
  with_dir (fun dir ->
      let path = Filename.concat dir "server.journal" in
      let server = Server.create ~options () in
      Server.attach_journal server ~journal:path ();
      let reply = Server.handle server register in
      expect_attach_failure "server" (fun () ->
          Server.attach_journal server
            ~journal:(Filename.concat dir "missing/j") ());
      let reply =
        with_unrelated_file dir (fun () ->
            match reply with
            | Server.Assign _ -> Server.handle server (Server.Report 1.0)
            | r -> Alcotest.fail ("register: " ^ Server.reply_to_string r))
      in
      Server.detach_journal server;
      let r = Server.recover ~options ~journal:path () in
      Server.detach_journal r.Server.server;
      Alcotest.(check int) "register and report replayed" 2 r.Server.replayed;
      Alcotest.(check (option string)) "the report's reply is the last"
        (Some (Server.reply_to_string reply))
        (Option.map Server.reply_to_string r.Server.last_reply))

(* One shard, as the bug was first seen, and two shards where only the
   second new journal fails to open: the first one, already opened,
   must not replace its shard's journal either. *)
let service_failed_reattach ~shards ~obstruct () =
  with_dir (fun dir ->
      let journal = Filename.concat dir "service.journal" in
      let service = Service.create ~options ~shards () in
      Service.attach_journals service ~journal ();
      List.iter
        (fun c -> ignore (Service.handle service (client_msg c register)))
        [ "alpha"; "echo" ];
      let target = obstruct dir in
      expect_attach_failure "service" (fun () ->
          Service.attach_journals service ~journal:target ());
      with_unrelated_file dir (fun () ->
          List.iter
            (fun c ->
              match Service.handle service (Service.Deregister { client = c }) with
              | Service.Deregistered _ -> ()
              | r -> Alcotest.fail ("deregister: " ^ Service.reply_to_string r))
            [ "alpha"; "echo" ]);
      Service.detach_journals service;
      let r = Service.recover ~options ~shards ~journal () in
      Service.detach_journals r.Service.service;
      Alcotest.(check int) "registers and deregisters replayed" 4
        r.Service.replayed;
      Alcotest.(check int) "no session survives its deregister" 0
        (Service.sessions r.Service.service))

let test_service_failed_reattach_one_shard =
  service_failed_reattach ~shards:1 ~obstruct:(fun dir ->
      Filename.concat dir "missing/j")

(* A directory where shard 1's new journal should go: shard 0's new
   journal opens, shard 1's cannot. *)
let test_service_failed_reattach_second_shard =
  service_failed_reattach ~shards:2 ~obstruct:(fun dir ->
      let target = Filename.concat dir "other.journal" in
      Sys.mkdir (Service.shard_journal ~journal:target ~shard:1) 0o755;
      target)

let suite =
  [
    Alcotest.test_case "server on-disk golden" `Quick test_server_golden;
    Alcotest.test_case "service on-disk golden" `Quick test_service_golden;
    Alcotest.test_case "server failed re-attach keeps journal" `Quick
      test_server_failed_reattach;
    Alcotest.test_case "service failed re-attach keeps journal" `Quick
      test_service_failed_reattach_one_shard;
    Alcotest.test_case "service partial re-attach keeps journals" `Quick
      test_service_failed_reattach_second_shard;
  ]
