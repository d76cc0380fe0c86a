(* Daemon subprocesses and memory readings. *)

(* VmHWM (peak resident set) of a process, in MB, from
   /proc/<pid>/status; [None] where procfs is unavailable. *)
let vm_hwm_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; rest ] -> (
             match String.split_on_char ' ' (String.trim rest) with
             | kb :: _ -> Option.map (fun kb -> kb /. 1024.0) (float_of_string_opt kb)
             | [] -> None)
           | _ -> None)

type daemon = { name : string; pid : int; mutable alive : bool }

let live : daemon list ref = ref []

(* Start [exe args], stdout and stderr appended to [log]. *)
let spawn ~name ~log exe args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null fd fd)
  in
  let d = { name; pid; alive = true } in
  live := d :: !live;
  d

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)

(* SIGTERM (a graceful drain), then SIGKILL after [grace_s]; always
   reaps.  Returns whether the daemon exited 0 on its own. *)
let stop ?(grace_s = 10.0) d =
  if not d.alive then true
  else begin
    d.alive <- false;
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace_s in
    let rec wait () =
      match waitpid_nohang d.pid with
      | Some (Unix.WEXITED 0) -> true
      | Some _ -> false
      | None when Unix.gettimeofday () < deadline -> Unix.sleepf 0.005; wait ()
      | None ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        false
    in
    wait ()
  end

let stop_all () = List.iter (fun d -> ignore (stop ~grace_s:2.0 d)) !live

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  remove_tree path;
  Unix.mkdir path 0o755
