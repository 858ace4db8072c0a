(* Spawning and stopping real nascentd processes. Each daemon gets a
   loopback TCP port picked here, its Unix socket in the run's work
   directory and, when journaled, a fresh journal directory passed the
   way README deploys it: through NASCENT_JOURNAL_DIR. Every other
   NASCENT_* variable of the caller's environment is dropped so the
   daemon's configuration is the one stated here. *)

module Json = Nascent_support.Json

type t = { name : string; pid : int; port : int }

let live : t list ref = ref []

let free_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket"

let env ~journal =
  let keep =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"NASCENT_" kv))
  in
  Array.of_list
    (match journal with
    | None -> keep
    | Some dir -> ("NASCENT_JOURNAL_DIR=" ^ dir) :: keep)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let log_tail path =
  try
    let s = In_channel.with_open_bin path In_channel.input_all in
    let n = String.length s in
    String.sub s (max 0 (n - 400)) (min n 400)
  with Sys_error _ -> ""

(* Start a daemon and wait until its TCP port answers the NF1 hello.
   A port taken between [free_port] and the daemon's bind makes the
   daemon exit; that attempt is retried on a new port. *)
let spawn ~exe ~dir ~name ?journal args =
  let rec attempt k =
    let port = free_port () in
    let log = Filename.concat dir (name ^ ".log") in
    let logfd =
      Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
    in
    let argv =
      [ exe; "--socket"; Filename.concat dir (name ^ ".sock"); "--tcp";
        Printf.sprintf "127.0.0.1:%d" port ]
      @ args
    in
    let pid =
      Fun.protect ~finally:(fun () -> Unix.close logfd) @@ fun () ->
      Unix.create_process_env exe (Array.of_list argv) (env ~journal) Unix.stdin logfd logfd
    in
    let d = { name; pid; port } in
    live := d :: !live;
    let deadline = Unix.gettimeofday () +. 20.0 in
    let rec wait () =
      if exited pid then begin
        live := List.filter (fun x -> x.pid <> pid) !live;
        if k < 3 then attempt (k + 1)
        else failwith (Printf.sprintf "nascentd %s exited on startup: %s" name (log_tail log))
      end
      else
        match Nf1.connect ~recv_timeout_s:5.0 port with
        | c ->
            Nf1.close c;
            d
        | exception (Unix.Unix_error _ | Nf1.Protocol _) ->
            if Unix.gettimeofday () > deadline then
              failwith (Printf.sprintf "nascentd %s never answered on port %d" name port)
            else begin
              Unix.sleepf 0.01;
              wait ()
            end
    in
    wait ()
  in
  attempt 0

(* Peak resident set (VmHWM) in MB, read before the process ends. *)
let vmhwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  try
    In_channel.with_open_bin path (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
          | Some _ -> find ()
        in
        find ())
  with Sys_error _ -> nan

(* Graceful drain on SIGTERM; SIGKILL if it has not ended in 10 s. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    if exited d.pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
    end
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  live := List.filter (fun x -> x.pid <> d.pid) !live

let stop_all () = List.iter stop !live

let status d =
  let c = Nf1.connect d.port in
  Fun.protect ~finally:(fun () -> Nf1.close c) @@ fun () ->
  Nf1.request c (Json.Obj [ ("op", Json.Str "status") ])

(* A numeric status field, following a path of object keys. *)
let field j path =
  let rec go j = function
    | [] -> Json.to_float j
    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
  in
  Option.value ~default:0.0 (go j path)
