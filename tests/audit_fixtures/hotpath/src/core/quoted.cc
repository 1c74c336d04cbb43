// Hot-path fixture: the marker inside a string literal opens no fence,
const char *kMarker = "// lva-hot-path: begin";
int after = 1; // nor does one after code: // lva-hot-path: begin
